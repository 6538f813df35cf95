package engine

import (
	"testing"

	"decomine/internal/ast"
	"decomine/internal/graph"
)

// hubGraph returns a power-law graph with a low-threshold hub index, so
// the bitmap kernels actually fire at test scale.
func hubGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.RMAT(9, 8, 21)
	if g.BuildHubIndex(32) == nil {
		t.Fatal("no hubs at threshold 32")
	}
	return g
}

// noHubGraph returns hubGraph's graph built a second time, with every
// hub dropped: the same vertices and edges, routed through the sorted
// array kernels only. It is a separate build because shallow copies
// share the hub index.
func noHubGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.RMAT(9, 8, 21)
	if g.BuildHubIndex(g.MaxDegree()+1) != nil {
		t.Fatal("hub index survived a threshold above the maximum degree")
	}
	return g
}

// buildTrianglePerOnceProgram counts each triangle once via a windowed
// fused count: x = |{u ∈ N(v0) ∩ N(v1) : u > v1}| with v1 > v0. The
// window exercises intersectCount's aWindowed guard (operand A's hub
// row must be ignored when the base set was sliced).
func buildTrianglePerOnceProgram() *ast.Program {
	b := ast.NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	above := b.TrimBelow(n0, v0)
	v1 := b.BeginLoop(above, nil)
	n1 := b.Neighbors(v1)
	common := b.Intersect(n0, n1)
	x := b.Size(b.TrimBelow(common, v1))
	g := b.NewGlobal()
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	b.EndLoop()
	return b.Finish()
}

// buildSubtractProgram sums |N(v0) \ N(v1)| over all edges, exercising
// the materialized subtract dispatch.
func buildSubtractProgram() *ast.Program {
	b := ast.NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	n1 := b.Neighbors(v1)
	diff := b.Subtract(n0, n1)
	v2 := b.BeginLoop(diff, nil)
	_ = v2
	one := b.Const(1)
	g := b.NewGlobal()
	b.GlobalAdd(g, one, 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	return b.Finish()
}

func kernelTotal(res *Result, ks ...int) int64 {
	var n int64
	for _, k := range ks {
		n += res.KernelCounts[k]
	}
	return n
}

// TestHubDifferential runs hub-routed executions of several programs
// on the hub-indexed graph, and no-hub and evalTree reference
// executions on the same graph without hubs: the counts must be
// bit-identical, the instruction streams identical, and only the hub
// run may dispatch bitmap kernels.
func TestHubDifferential(t *testing.T) {
	g, plain := hubGraph(t), noHubGraph(t)
	progs := map[string]*ast.Program{
		"triangle":      buildTriangleProgram(),
		"triangle-once": buildTrianglePerOnceProgram(),
		"subtract":      buildSubtractProgram(),
	}
	for name, prog := range progs {
		hub, err := Run(g, prog, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		noHub, err := Run(plain, prog, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		tree := evalTree(plain, prog, nil, nil)
		if hub.Globals[0] != noHub.Globals[0] || hub.Globals[0] != tree[0] {
			t.Fatalf("%s: counts diverge: hub=%d nohub=%d tree=%d",
				name, hub.Globals[0], noHub.Globals[0], tree[0])
		}
		if hub.InstructionsExecuted() != noHub.InstructionsExecuted() {
			t.Fatalf("%s: instruction counts diverge: hub=%d nohub=%d",
				name, hub.InstructionsExecuted(), noHub.InstructionsExecuted())
		}
		if bm := kernelTotal(hub, KernelBitmap, KernelBitmapCount); bm == 0 {
			t.Fatalf("%s: hub run dispatched no bitmap kernels: %v", name, hub.KernelCounts)
		}
		if bm := kernelTotal(noHub, KernelBitmap, KernelBitmapCount); bm != 0 {
			t.Fatalf("%s: no-hub run dispatched %d bitmap kernels", name, bm)
		}
		// Total dispatches agree: the router changes which kernel runs,
		// never how many set operations execute.
		all := []int{KernelMerge, KernelGallop, KernelBitmap, KernelBitmapCount}
		if kernelTotal(hub, all...) != kernelTotal(noHub, all...) {
			t.Fatalf("%s: dispatch totals diverge: hub=%v nohub=%v",
				name, hub.KernelCounts, noHub.KernelCounts)
		}
	}
}

// TestKernelCountsScheduleInvariant checks that the merged kernel-path
// counters do not depend on thread count or the steal/split schedule
// (thief prefix replays are muted): Threads: 1 is the reference.
func TestKernelCountsScheduleInvariant(t *testing.T) {
	g := hubGraph(t)
	prog := buildTriangleProgram()
	base, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if kernelTotal(base, KernelBitmap, KernelBitmapCount) == 0 {
		t.Fatal("baseline run dispatched no bitmap kernels")
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
		for k := range base.KernelCounts {
			if res.KernelCounts[k] != base.KernelCounts[k] {
				t.Fatalf("threads=%d: kernel %s count %d != %d",
					opts.Threads, KernelNames[k], res.KernelCounts[k], base.KernelCounts[k])
			}
		}
	}
}

// TestPreparedHubMatching: a Prepared matches only the graph, program
// and hub index it was built for. Once the graph is re-indexed it no
// longer matches, and a run handed the stale Prepared routes through
// the new index.
func TestPreparedHubMatching(t *testing.T) {
	g := hubGraph(t)
	prog := buildTriangleProgram()
	prep := Prepare(g, ast.Lower(prog))
	if !prep.matches(g, prog) {
		t.Fatal("Prepared must match its own graph, program and hub index")
	}
	if prep.matches(g, buildSubtractProgram()) {
		t.Fatal("Prepared must not match another program")
	}
	if prep.matches(noHubGraph(t), prog) {
		t.Fatal("Prepared must not match another graph")
	}
	want := evalTree(g, prog, nil, nil)

	g.BuildHubIndex(g.MaxDegree() + 1) // drop every hub
	if prep.matches(g, prog) {
		t.Fatal("Prepared wired to a stale hub index must not match after a rebuild")
	}
	res, err := Run(g, prog, Options{Threads: 1, Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	if res.Globals[0] != want[0] {
		t.Fatalf("count %d after the rebuild, tree %d", res.Globals[0], want[0])
	}
	if bm := kernelTotal(res, KernelBitmap, KernelBitmapCount); bm != 0 {
		t.Fatalf("run with a stale Prepared dispatched %d bitmap kernels after the hubs were dropped", bm)
	}
}

// TestHubRunWithPoolAndPrepared drives the hub routing through the
// persistent pool + Prepared fast path (the production configuration)
// and checks it against the sequential no-hub result.
func TestHubRunWithPoolAndPrepared(t *testing.T) {
	g := hubGraph(t)
	prog := buildTrianglePerOnceProgram()
	code := ast.Lower(prog)
	prep := Prepare(g, code)
	pool := NewPool(4)
	defer pool.Close()

	want, err := Run(noHubGraph(t), prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		res, err := Run(g, prog, Options{Threads: 4, Pool: pool, Code: code, Prepared: prep})
		if err != nil {
			t.Fatal(err)
		}
		if res.Globals[0] != want.Globals[0] {
			t.Fatalf("run %d: count %d != sequential no-hub %d", run, res.Globals[0], want.Globals[0])
		}
		if bm := kernelTotal(res, KernelBitmap, KernelBitmapCount); bm == 0 {
			t.Fatalf("run %d: no bitmap kernels through the prepared pool path", run)
		}
	}
}
