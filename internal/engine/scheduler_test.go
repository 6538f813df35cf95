package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/graph"
)

// loopSegIndex returns the index of the first top-level loop segment.
func loopSegIndex(t *testing.T, bc *ast.Lowered) int {
	t.Helper()
	for i := range bc.Segments {
		if bc.Segments[i].Loop {
			return i
		}
	}
	t.Fatal("no loop segment")
	return -1
}

func TestAnalyzeD1TriangleSplittable(t *testing.T) {
	bc := ast.Lower(buildTriangleProgram())
	d1 := analyzeD1(bc)
	si := loopSegIndex(t, bc)
	if !d1[si].ok {
		t.Fatalf("triangle loop segment %d not splittable: %+v", si, d1[si])
	}
	if d1[si].next <= d1[si].begin {
		t.Fatalf("bad split window [%d, %d]", d1[si].begin, d1[si].next)
	}
}

// hashPerVertexProgram carries cross-depth-1-loop hash state (table
// filled by one depth-1 loop, read by a second), which must disqualify
// depth-1 splitting: the outer body has a non-empty suffix after the
// first depth-1 loop.
func hashPerVertexProgram() *ast.Program {
	b := ast.NewBuilder(0)
	all := b.All()
	tab := b.NewTable()
	gl := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	b.HashClear(tab)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	b.HashInc(tab, []int{v1}, 1)
	b.EndLoop()
	v2 := b.BeginLoop(n0, nil)
	got := b.HashGet(tab, []int{v2})
	b.GlobalAdd(gl, got, 1)
	b.EndLoop()
	b.EndLoop()
	return b.Finish()
}

func TestAnalyzeD1HashProgramNotSplittable(t *testing.T) {
	bc := ast.Lower(hashPerVertexProgram())
	d1 := analyzeD1(bc)
	si := loopSegIndex(t, bc)
	if d1[si].ok {
		t.Fatal("hash program with cross-loop table state marked splittable")
	}
}

// recordingSched accepts every shed and records the shed ranges so the
// test can execute them on thief frames.
type recordingSched struct {
	queue []task
}

func (r *recordingSched) shed(seg int, v uint32, lo, hi int, elemUnits int64) bool {
	r.queue = append(r.queue, task{seg: seg, v: v, lo: lo, hi: hi, depth1: true, elemUnits: elemUnits})
	return true
}

// TestExecD1SplitMatchesWhole exercises depth-1 splitting directly and
// deterministically: an owner frame executes a hub vertex's iteration
// while shedding aggressively, thief frames execute every shed range,
// and the merged result plus merged OpCounts must match an unsplit run.
func TestExecD1SplitMatchesWhole(t *testing.T) {
	g := graph.RMAT(9, 8, 99)
	prog := buildTriangleProgram()
	bc := ast.Lower(prog)
	sh := newVMShared(g, bc)
	si := loopSegIndex(t, bc)
	if !sh.d1[si].ok {
		t.Fatal("triangle segment not splittable")
	}

	// Pick the highest-degree vertex as the heavy outer iteration.
	var hub uint32
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > g.Degree(hub) {
			hub = uint32(v)
		}
	}

	whole := sh.getFrame()
	if !whole.execD1(si, hub, 0, -1, 0, nil) {
		t.Fatal("whole execD1 stopped")
	}

	owner := sh.getFrame()
	rec := &recordingSched{}
	if !owner.execD1(si, hub, 0, -1, 0, rec) {
		t.Fatal("owner execD1 stopped")
	}
	if len(rec.queue) == 0 {
		t.Fatalf("no ranges shed for hub of degree %d", g.Degree(hub))
	}
	// Thieves may themselves shed; drain until the queue is empty.
	for len(rec.queue) > 0 {
		tk := rec.queue[0]
		rec.queue = rec.queue[1:]
		thief := sh.getFrame()
		if !thief.execD1(tk.seg, tk.v, tk.lo, tk.hi, tk.elemUnits, rec) {
			t.Fatal("thief execD1 stopped")
		}
		owner.mergeFrom(thief)
	}

	if owner.globalsV[0] != whole.globalsV[0] {
		t.Fatalf("split count %d != whole count %d", owner.globalsV[0], whole.globalsV[0])
	}
	if owner.opCounts != whole.opCounts {
		t.Fatalf("split OpCounts %v != whole %v", owner.opCounts, whole.opCounts)
	}
}

func TestPoolRunMatchesSequentialAndRecycles(t *testing.T) {
	g := graph.GNP(300, 0.05, 7)
	prog := buildTriangleProgram()
	want, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool(4)
	defer pool.Close()
	prep := Prepare(g, ast.Lower(prog))
	for i := 0; i < 5; i++ {
		res, err := Run(g, prog, Options{Threads: 4, Pool: pool, Prepared: prep})
		if err != nil {
			t.Fatal(err)
		}
		if res.Globals[0] != want.Globals[0] {
			t.Fatalf("run %d: %d != %d", i, res.Globals[0], want.Globals[0])
		}
		var work int64
		for _, w := range res.WorkPerThread {
			work += w
		}
		if work != res.InstructionsExecuted() {
			t.Fatalf("run %d: work %d != instructions %d", i, work, res.InstructionsExecuted())
		}
	}
}

func TestPoolConcurrentJobs(t *testing.T) {
	g := graph.GNP(250, 0.05, 11)
	prog := buildTriangleProgram()
	want, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()
	prep := Prepare(g, ast.Lower(prog))

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for gi := 0; gi < 6; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := Run(g, prog, Options{Threads: 4, Pool: pool, Prepared: prep})
				if err != nil {
					errs <- err.Error()
					return
				}
				if res.Globals[0] != want.Globals[0] {
					errs <- "count mismatch under concurrent jobs"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestOpCountsScheduleInvariant checks that the merged per-opcode
// execution counts do not depend on the thread count or the steal/split
// schedule: Threads: 1 is the reference.
func TestOpCountsScheduleInvariant(t *testing.T) {
	g := graph.RMAT(9, 8, 21)
	prog := buildTriangleProgram()
	base, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Threads: 2},
		{Threads: 4},
		{Threads: 8},
	}
	for _, opts := range cases {
		res, err := Run(g, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Globals[0] != base.Globals[0] {
			t.Fatalf("threads=%d: count %d != %d", opts.Threads, res.Globals[0], base.Globals[0])
		}
		for op := range base.OpCounts {
			if res.OpCounts[op] != base.OpCounts[op] {
				t.Fatalf("threads=%d: op %s count %d != %d",
					opts.Threads, ast.OpCode(op), res.OpCounts[op], base.OpCounts[op])
			}
		}
	}
}

// buildFourMotifProgram counts two 4-vertex motifs in one pass, as
// ordered tuples: 4-cliques (global 0) through a three-deep loop nest of
// chained intersections, and diamonds (global 1) in closed form from
// each edge's common-neighbor count.
func buildFourMotifProgram() *ast.Program {
	b := ast.NewBuilder(0)
	all := b.All()
	cliques, diamonds := b.NewGlobal(), b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	common := b.Intersect(n0, b.Neighbors(v1))
	c := b.Size(common)
	b.GlobalAdd(diamonds, b.Mul(c, b.Sub(c, b.Const(1))), 1)
	v2 := b.BeginLoop(common, nil)
	b.GlobalAdd(cliques, b.Size(b.Intersect(common, b.Neighbors(v2))), 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	return b.Finish()
}

// TestPoolBitIdenticalToSequential pins the one-driver contract: the
// in-line Threads: 1 case and a 4-worker stealing pool are the same
// execution, so every schedule-invariant output — globals, per-opcode
// counts, kernel dispatches and kernel element work — is bit-identical
// (and both agree with the evalTree reference).
func TestPoolBitIdenticalToSequential(t *testing.T) {
	g := graph.RMAT(10, 8, 33)
	if g.BuildHubIndex(32) == nil {
		t.Fatal("no hubs at threshold 32")
	}
	prog := buildFourMotifProgram()
	seq, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()
	par, err := Run(g, prog, Options{Threads: 4, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if par.Steals == 0 {
		t.Fatal("pool run never stole: the comparison exercised no schedule")
	}
	same := func(what string, a, b []int64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d != %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: sequential %d, pool %d", what, i, a[i], b[i])
			}
		}
	}
	same("Globals", seq.Globals, par.Globals)
	same("OpCounts", seq.OpCounts, par.OpCounts)
	same("KernelCounts", seq.KernelCounts, par.KernelCounts)
	same("KernelElems", seq.KernelElems, par.KernelElems)
	same("Globals vs evalTree", seq.Globals, evalTree(g, prog, nil, nil))
	if seq.Globals[0] == 0 || seq.Globals[1] == 0 {
		t.Fatalf("graph too sparse to exercise the program: %v", seq.Globals)
	}
}

func TestStealCountersOnSkewedGraph(t *testing.T) {
	g := graph.RMAT(10, 8, 33)
	prog := buildTriangleProgram()
	pool := NewPool(4)
	defer pool.Close()
	res, err := Run(g, prog, Options{Threads: 4, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Fatal("no steals recorded on a skewed graph with 4 workers")
	}
	if res.Splits < 0 {
		t.Fatal("negative splits")
	}
	// The in-line Threads: 1 case never touches a deque.
	seq, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Steals != 0 || seq.Splits != 0 {
		t.Fatalf("sequential run reported steals=%d splits=%d", seq.Steals, seq.Splits)
	}
}

// TestPoolSplitsStarGraph drives the depth-1 shed path end to end: a
// star graph's hub is a single outer iteration holding almost all the
// work, so workers that drain the leaves go idle and the hub's depth-1
// range must be shed to them.
func TestPoolSplitsStarGraph(t *testing.T) {
	const leaves = 1 << 15
	edges := make([][2]uint32, leaves)
	for i := range edges {
		edges[i] = [2]uint32{0, uint32(i + 1)}
	}
	g := graph.FromEdges(leaves+1, edges)
	prog := buildTriangleProgram()
	pool := NewPool(4)
	defer pool.Close()

	var splits int64
	for attempt := 0; attempt < 8 && splits == 0; attempt++ {
		res, err := Run(g, prog, Options{Threads: 4, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if res.Globals[0] != 0 {
			t.Fatalf("star graph has no triangles, got %d", res.Globals[0])
		}
		splits = res.Splits
	}
	if splits == 0 {
		t.Fatal("hub iteration never shed a depth-1 subrange")
	}
}

// TestCancelInsideLongIteration verifies the VM's back-edge cancellation:
// a consumer sets Cancel at the start of the first outer iteration, and
// the run must stop within roughly one cancel-check interval instead of
// finishing the iteration's ~n^2-instruction subtree.
func TestCancelInsideLongIteration(t *testing.T) {
	const n = 500
	b := ast.NewBuilder(0)
	all := b.All()
	gl := b.NewGlobal()
	_ = b.BeginLoop(all, nil)
	one := b.Const(1)
	b.Emit(0, nil, one) // consumer hook before the heavy subtree
	_ = b.BeginLoop(all, nil)
	_ = b.BeginLoop(all, nil)
	b.GlobalAdd(gl, one, 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	prog := b.Finish()

	g := graph.GNP(n, 0.01, 13)
	var cancel atomic.Bool
	res, err := Run(g, prog, Options{
		Threads: 1,
		Cancel:  &cancel,
		NewConsumer: func(int) Consumer {
			return ConsumerFunc(func(int, []uint32, int64) bool {
				cancel.Store(true)
				return true
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("cancel inside iteration not observed")
	}
	// One full outer iteration alone executes ~3*n^2 ≈ 750k
	// instructions; the fuel check must abort far sooner.
	if got := res.InstructionsExecuted(); got > 3*cancelCheckInterval {
		t.Fatalf("executed %d instructions after in-iteration cancel (limit %d)", got, 3*cancelCheckInterval)
	}
}
