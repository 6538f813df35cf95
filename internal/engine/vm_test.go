package engine

import (
	"testing"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/graph"
	"decomine/internal/pattern"
)

// vmTestPrograms collects programs covering every opcode class so the
// VM can be compared against the evalTree reference.
func vmTestPrograms() map[string]*ast.Program {
	progs := map[string]*ast.Program{
		"triangle": buildTriangleProgram(),
		"slow":     slowProgram(),
	}

	// Trims + CountBelow (symmetry-broken triangle).
	b := ast.NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	n0t := b.TrimAbove(n0, v0)
	v1 := b.BeginLoop(n0t, nil)
	n1 := b.Neighbors(v1)
	common := b.Intersect(n0, n1)
	x := b.CountBelow(common, v1)
	gl := b.NewGlobal()
	b.GlobalAdd(gl, x, 1)
	b.EndLoop()
	b.EndLoop()
	progs["trimmed"] = b.Finish()

	// Hash tables + conditional.
	b = ast.NewBuilder(0)
	all = b.All()
	tab := b.NewTable()
	gl = b.NewGlobal()
	v0 = b.BeginLoop(all, nil)
	b.HashClear(tab)
	n0 = b.Neighbors(v0)
	d := b.Size(n0)
	b.BeginCond(d)
	v1 = b.BeginLoop(n0, nil)
	b.HashInc(tab, []int{v1}, 1)
	b.EndLoop()
	v2 := b.BeginLoop(n0, nil)
	got := b.HashGet(tab, []int{v2})
	b.GlobalAdd(gl, got, 1)
	b.EndLoop()
	b.EndCond()
	b.EndLoop()
	progs["hashcond"] = b.Finish()

	// Accumulators + subtract + remove.
	b = ast.NewBuilder(0)
	all = b.All()
	gl = b.NewGlobal()
	acc := b.NewAccumulator()
	v0 = b.BeginLoop(all, nil)
	b.Reset(acc, 0)
	n0 = b.Neighbors(v0)
	rest := b.Subtract(all, n0)
	rest2 := b.Remove(rest, v0)
	sz := b.Size(rest2)
	b.Accum(acc, sz, 2)
	b.GlobalAdd(gl, acc, 1)
	b.EndLoop()
	progs["accum"] = b.Finish()

	return progs
}

// runBoth executes prog on the VM with opts and on the sequential
// evalTree reference, returning the VM result and the reference globals.
func runBoth(t *testing.T, g *graph.Graph, prog *ast.Program, opts Options) (vm *Result, tree []int64) {
	t.Helper()
	vm, err := Run(g, prog, opts)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	return vm, evalTree(g, prog, opts.Pins, nil)
}

func TestVMMatchesTreeReference(t *testing.T) {
	g := graph.GNP(150, 0.08, 99)
	for name, prog := range vmTestPrograms() {
		for _, threads := range []int{1, 4} {
			vm, tree := runBoth(t, g, prog, Options{Threads: threads})
			for i := range vm.Globals {
				if vm.Globals[i] != tree[i] {
					t.Errorf("%s threads=%d global %d: vm %d, tree %d",
						name, threads, i, vm.Globals[i], tree[i])
				}
			}
		}
	}
}

func TestVMMatchesTreeReferenceLabeled(t *testing.T) {
	bld := graph.NewBuilder(60)
	for i := 0; i < 59; i++ {
		bld.AddEdge(uint32(i), uint32(i+1))
		if i%3 == 0 && i+5 < 60 {
			bld.AddEdge(uint32(i), uint32(i+5))
		}
	}
	labels := make([]uint32, 60)
	for i := range labels {
		labels[i] = uint32(i % 3)
	}
	bld.SetLabels(labels)
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}

	b := ast.NewBuilder(0)
	all := b.All()
	lbl := b.FilterLabel(all, 1)
	gl := b.NewGlobal()
	v0 := b.BeginLoop(lbl, nil)
	n0 := b.Neighbors(v0)
	same := b.FilterLabelOfVar(n0, v0)
	diff := b.FilterLabelNotOfVar(n0, v0)
	xs := b.Size(same)
	xd := b.Size(diff)
	tot := b.Add(xs, xd)
	b.GlobalAdd(gl, tot, 1)
	b.EndLoop()
	prog := b.Finish()

	vm, tree := runBoth(t, g, prog, Options{Threads: 2})
	if vm.Globals[0] != tree[0] {
		t.Fatalf("labeled: vm %d, tree %d", vm.Globals[0], tree[0])
	}
}

func TestVMOpCountsPopulated(t *testing.T) {
	g := graph.GNP(100, 0.1, 7)
	prog := buildTriangleProgram()
	res, err := Run(g, prog, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpCounts == nil {
		t.Fatal("VM run returned nil OpCounts")
	}
	if res.InstructionsExecuted() == 0 {
		t.Fatal("VM executed 0 instructions")
	}
	// Every inner-loop iteration evaluates an intersection, so ISetDef
	// executions must dominate loop.begin executions.
	if res.OpCounts[ast.ISetDef] == 0 || res.OpCounts[ast.ILoopNext] == 0 {
		t.Fatalf("expected set/loop.next activity, got %v", res.OpCounts)
	}
	// Parallel and sequential execute the same instruction mix (the
	// driver replaces only the top-level loop.begin/loop.next pair, which
	// the VM never executes for parallelized loops either way).
	seq, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for op := range res.OpCounts {
		if res.OpCounts[op] != seq.OpCounts[op] {
			t.Fatalf("op %s: parallel %d, sequential %d",
				ast.OpCode(op), res.OpCounts[op], seq.OpCounts[op])
		}
	}
}

func TestVMPrecompiledCodeReuse(t *testing.T) {
	g := graph.GNP(120, 0.1, 11)
	prog := buildTriangleProgram()
	code := ast.Lower(prog)
	want, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := Run(g, prog, Options{Threads: 2, Code: code})
		if err != nil {
			t.Fatal(err)
		}
		if res.Globals[0] != want.Globals[0] {
			t.Fatalf("run %d with precompiled code: %d, want %d", i, res.Globals[0], want.Globals[0])
		}
	}
	// Code lowered from a different program must be ignored, not misused.
	other := ast.Lower(slowProgram())
	res, err := Run(g, prog, Options{Threads: 1, Code: other})
	if err != nil {
		t.Fatal(err)
	}
	if res.Globals[0] != want.Globals[0] {
		t.Fatalf("mismatched Code not ignored: %d, want %d", res.Globals[0], want.Globals[0])
	}
}

func TestVMEmitAndEarlyStop(t *testing.T) {
	b := ast.NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	n0t := b.TrimBelow(n0, v0)
	v1 := b.BeginLoop(n0t, nil)
	one := b.Const(1)
	b.Emit(0, []int{v0, v1}, one)
	b.EndLoop()
	b.EndLoop()
	prog := b.Finish()
	g := graph.GNP(100, 0.1, 31)

	// The sequential VM must deliver exactly the reference's emission
	// sequence, and a consumer stop must cut both at the same point.
	type emit struct {
		v0, v1 uint32
		count  int64
	}
	for _, limit := range []int{0, 7} { // 0 = never stop
		collect := func(out *[]emit) Consumer {
			return ConsumerFunc(func(sub int, verts []uint32, count int64) bool {
				*out = append(*out, emit{verts[0], verts[1], count})
				return len(*out) != limit
			})
		}
		var got, want []emit
		if _, err := Run(g, prog, Options{Threads: 1, NewConsumer: func(int) Consumer { return collect(&got) }}); err != nil {
			t.Fatal(err)
		}
		evalTree(g, prog, nil, collect(&want))
		wantLen := limit
		if limit == 0 {
			wantLen = int(g.NumEdges())
		}
		if len(got) != wantLen || len(want) != wantLen {
			t.Fatalf("limit %d: vm emitted %d, tree %d, want %d", limit, len(got), len(want), wantLen)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("limit %d: emission %d: vm %v, tree %v", limit, i, got[i], want[i])
			}
		}
	}
}

func TestVMPinnedVars(t *testing.T) {
	b := ast.NewBuilder(1)
	n0 := b.Neighbors(0)
	x := b.Size(n0)
	gl := b.NewGlobal()
	b.GlobalAdd(gl, x, 1)
	prog := b.Finish()
	code := ast.Lower(prog)

	g := graph.GNP(100, 0.1, 41)
	for _, v := range []uint32{0, 7, 99} {
		res, err := Run(g, prog, Options{Threads: 1, Pins: []uint32{v}, Code: code})
		if err != nil {
			t.Fatal(err)
		}
		if res.Globals[0] != int64(g.Degree(v)) {
			t.Fatalf("pinned deg(%d) = %d, want %d", v, res.Globals[0], g.Degree(v))
		}
	}
}

func TestVMArenaBoundsAreRespected(t *testing.T) {
	// A program whose intersections chain through many registers; the
	// arena bound analysis must leave every buffer large enough (append
	// would still be correct, but counts prove no register clobbering).
	b := ast.NewBuilder(0)
	all := b.All()
	gl := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	n1 := b.Neighbors(v1)
	c1 := b.Intersect(n0, n1)
	v2 := b.BeginLoop(c1, nil)
	n2 := b.Neighbors(v2)
	c2 := b.Intersect(c1, n2)
	c3 := b.Intersect(c2, n0)
	x := b.Size(c3)
	b.GlobalAdd(gl, x, 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	prog := b.Finish()

	g := graph.GNP(120, 0.15, 3)
	vm, tree := runBoth(t, g, prog, Options{Threads: 2})
	if vm.Globals[0] != tree[0] {
		t.Fatalf("deep intersect chain: vm %d, tree %d", vm.Globals[0], tree[0])
	}
	if vm.Globals[0] == 0 {
		t.Fatal("test graph too sparse to exercise intersect chain")
	}
}

// labeledRing is a cycle on n vertices where 2j and 2j+1 share label
// j mod 3, so every label has vertices and some edges join equal labels.
func labeledRing(t *testing.T, n int) *graph.Graph {
	t.Helper()
	bld := graph.NewBuilder(n)
	labels := make([]uint32, n)
	for i := 0; i < n; i++ {
		bld.AddEdge(uint32(i), uint32((i+1)%n))
		labels[i] = uint32(i/2) % 3
	}
	bld.SetLabels(labels)
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rootLabelProgram loops over the vertices labeled l and counts their
// same-label neighbors.
func rootLabelProgram(l uint32) *ast.Program {
	b := ast.NewBuilder(0)
	lbl := b.FilterLabel(b.All(), l)
	gl := b.NewGlobal()
	v0 := b.BeginLoop(lbl, nil)
	same := b.FilterLabelOfVar(b.Neighbors(v0), v0)
	b.GlobalAdd(gl, b.Size(same), 1)
	b.EndLoop()
	return b.Finish()
}

// TestVMRootSetsAliasGraph checks that root vertex sets cost a plan
// nothing sized by |V|: two prepared programs alias the same
// graph-owned identity and label lists, the arena plan is the same on
// 10 000 vertices as on 100, and a label no vertex carries loops zero
// times.
func TestVMRootSetsAliasGraph(t *testing.T) {
	g := labeledRing(t, 10000)
	small := labeledRing(t, 100)
	for _, l := range []uint32{1, 2} {
		prog := rootLabelProgram(l)
		bc := ast.Lower(prog)
		p := Prepare(g, bc)
		roots := 0
		for _, ins := range bc.Code {
			if ins.Op != ast.ISetDef || (ins.Set != ast.OpAll && ins.Set != ast.OpFilterLabel) {
				continue
			}
			want := g.Vertices()
			if ins.Set == ast.OpFilterLabel {
				want = g.VerticesWithLabel(l)
			}
			got := p.sh.root[ins.Dst]
			if !p.sh.rooted[ins.Dst] || p.sh.bufCap[ins.Dst] != 0 || len(got) == 0 || &got[0] != &want[0] {
				t.Fatalf("label %d: %v register %d does not alias the graph's list", l, ins.Set, ins.Dst)
			}
			roots++
		}
		if roots != 2 {
			t.Fatalf("label %d: %d root set defs, want 2", l, roots)
		}
		if ps := Prepare(small, bc); ps.sh.arenaLen != p.sh.arenaLen {
			t.Fatalf("label %d: arenaLen %d at |V|=100, %d at |V|=10000", l, ps.sh.arenaLen, p.sh.arenaLen)
		}
		var want int64
		for _, v := range g.VerticesWithLabel(l) {
			for _, u := range g.Neighbors(v) {
				if g.Label(u) == l {
					want++
				}
			}
		}
		for _, threads := range []int{1, 2} {
			res, err := Run(g, prog, Options{Threads: threads, Code: bc, Prepared: p})
			if err != nil {
				t.Fatal(err)
			}
			if res.Globals[0] != want {
				t.Fatalf("label %d threads %d: got %d, want %d", l, threads, res.Globals[0], want)
			}
		}
	}
	res, err := Run(g, rootLabelProgram(7), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Globals[0] != 0 || res.OpCounts[ast.ILoopNext] != 0 {
		t.Fatalf("absent label: global %d after %d iterations", res.Globals[0], res.OpCounts[ast.ILoopNext])
	}
}

// TestLabelSliceOperands checks the lowering and preparation of label
// filters. On the labeled-triangle emit plan every filter over an
// OpNeighbors register names that register's vertex in NbrA and gets
// no arena buffer (it aliases the graph's label-grouped adjacency); a
// filter over an intersection keeps NbrA = -1 and its buffer. The
// counting twins of both programs must match a scan.
func TestLabelSliceOperands(t *testing.T) {
	g := graph.GNP(200, 0.08, 3).WithRandomLabels(3, 4)
	tri := pattern.MustParse("0-1,1-2,2-0")
	tri.SetLabel(0, 0)
	tri.SetLabel(1, 0)
	tri.SetLabel(2, 1)
	plan := func(mode core.Mode) *core.Plan {
		p, err := core.GenerateDirect(core.DirectSpec{Pattern: tri, Order: []int{0, 1, 2}, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bc := plan(core.ModeEmit).Lowered()
	sh := Prepare(g, bc).sh
	nbrOf := map[int32]int32{}
	slices := 0
	for _, ins := range bc.Code {
		if ins.Op != ast.ISetDef {
			continue
		}
		switch ins.Set {
		case ast.OpNeighbors:
			nbrOf[ins.Dst] = ins.V
		case ast.OpFilterLabel, ast.OpFilterLabelOfVar:
			v, ok := nbrOf[ins.A]
			if !ok {
				if !sh.rooted[ins.Dst] {
					t.Fatalf("filter s%d over s%d: neither a root set nor over a neighbor register", ins.Dst, ins.A)
				}
				continue
			}
			if ins.NbrA != v || sh.bufCap[ins.Dst] != 0 {
				t.Fatalf("filter s%d over N(v%d): NbrA %d, buffer %d", ins.Dst, v, ins.NbrA, sh.bufCap[ins.Dst])
			}
			slices++
		}
	}
	if slices < 2 {
		t.Fatalf("%d label slices in the triangle plan, want one per bound neighbor list:\n%s", slices, bc.Disassemble())
	}

	// Count the triangles with a scan (v0 < v1: the two label-0 vertices
	// are automorphic) to check the count plan against.
	var want int64
	for v0 := uint32(0); v0 < uint32(g.NumVertices()); v0++ {
		for _, v1 := range g.Neighbors(v0) {
			for _, v2 := range g.Neighbors(v1) {
				if v0 < v1 && g.Label(v0) == 0 && g.Label(v1) == 0 && g.Label(v2) == 1 && g.HasEdge(v0, v2) {
					want++
				}
			}
		}
	}
	cp := plan(core.ModeCount)
	for _, threads := range []int{1, 2} {
		res, err := Run(g, cp.Prog, Options{Threads: threads, Code: cp.Lowered()})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := cp.ExtractCount(res.Globals, nil); err != nil || got != want {
			t.Fatalf("threads %d: %d labeled triangles (%v), want %d", threads, got, err, want)
		}
	}

	// A filter over an intersection scans into its own buffer.
	b := ast.NewBuilder(0)
	gl := b.NewGlobal()
	v0 := b.BeginLoop(b.All(), nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	f := b.FilterLabel(b.Intersect(n0, b.Neighbors(v1)), 1)
	b.GlobalAdd(gl, b.Size(f), 1)
	b.EndLoop()
	b.EndLoop()
	prog := b.Finish()
	ibc := ast.Lower(prog)
	ish := Prepare(g, ibc).sh
	for _, ins := range ibc.Code {
		if ins.Op == ast.ISetDef && ins.Set == ast.OpFilterLabel && (ins.NbrA != -1 || ish.bufCap[ins.Dst] == 0) {
			t.Fatalf("filter over an intersection: NbrA %d, buffer %d", ins.NbrA, ish.bufCap[ins.Dst])
		}
	}
	want = 0
	for v0 := uint32(0); v0 < uint32(g.NumVertices()); v0++ {
		for _, v1 := range g.Neighbors(v0) {
			for _, x := range g.Neighbors(v1) {
				if g.Label(x) == 1 && g.HasEdge(v0, x) {
					want++
				}
			}
		}
	}
	res, err := Run(g, prog, Options{Threads: 2, Code: ibc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Globals[0] != want {
		t.Fatalf("filtered intersections: %d, want %d", res.Globals[0], want)
	}
}
