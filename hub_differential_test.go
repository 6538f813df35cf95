package decomine

// Differential and concurrency tests for the hybrid dense/sparse set
// kernels: every plan must count identically — and match brute-force
// tuple enumeration — whether the VM routes through the hub bitmap
// index or runs pure sorted-array kernels on the same graph without
// hubs, and the shared read-only index must be race-free under the
// work-stealing scheduler (run under -race in CI).

import (
	"sync"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/engine"
	"decomine/internal/pattern"
)

// hubTestGraph returns a power-law graph indexed with a low hub
// threshold so the bitmap kernels fire at test scale.
func hubTestGraph(t testing.TB) *Graph {
	t.Helper()
	g := GenerateRMAT(9, 8, 4321).BuildHubIndex(32)
	if g.MaxDegree() < 32 {
		t.Fatal("test graph has no hubs at threshold 32")
	}
	return g
}

// runCode executes plan, lowered as code, on g through the engine
// alone and returns the run with its extracted count.
func runCode(t testing.TB, g *Graph, plan *core.Plan, code *ast.Lowered, threads int) (*engine.Result, int64) {
	t.Helper()
	res, err := engine.Run(g.g, plan.Prog, engine.Options{Threads: threads, Code: code})
	if err != nil {
		t.Fatal(err)
	}
	c, err := plan.ExtractCount(res.Globals, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, c
}

func TestHubIndexDifferentialMotifSuite(t *testing.T) {
	g := hubTestGraph(t)
	// plain is the same graph built a second time with every hub
	// dropped: a separate build, because shallow copies share the index.
	plain := GenerateRMAT(9, 8, 4321)
	plain.BuildHubIndex(plain.MaxDegree() + 1)
	hubSys := NewSystem(g, Options{Threads: 3, CostModel: CostLocality})
	defer hubSys.Close()

	maxK := 4
	if testing.Short() {
		maxK = 3
	}
	sawBitmap := false
	for k := 3; k <= maxK; k++ {
		for i, p := range pattern.ConnectedPatterns(k) {
			pp := &Pattern{p}
			hub, err := hubSys.CountPattern(pp, QueryOpts{})
			if err != nil {
				t.Fatalf("k=%d #%d hub: %v", k, i, err)
			}
			e, _, err := hubSys.planFor(planReq{pat: p})
			if err != nil {
				t.Fatal(err)
			}
			noHub, noHubCount := runCode(t, plain, e.plan, e.plan.Lowered(), 3)
			want := bruteEI(g, p)
			if hub.Count != want || noHubCount != want {
				t.Errorf("k=%d pattern #%d (%s): hub %d, nohub %d, brute force %d",
					k, i, p, hub.Count, noHubCount, want)
			}
			// The hub index changes kernel routes, never the plan: both
			// runs execute the same instruction stream.
			if hub.Stats.Exec.Instructions != noHub.InstructionsExecuted() {
				t.Errorf("k=%d pattern #%d: hub run executed %d instructions, nohub %d",
					k, i, hub.Stats.Exec.Instructions, noHub.InstructionsExecuted())
			}
			if n := noHub.KernelCounts[engine.KernelBitmap] + noHub.KernelCounts[engine.KernelBitmapCount]; n != 0 {
				t.Errorf("k=%d pattern #%d: no-hub run dispatched %d bitmap kernels", k, i, n)
			}
			if hub.Stats.Exec.Kernels["bitmap"]+hub.Stats.Exec.Kernels["bitmap-count"] > 0 {
				sawBitmap = true
			}
		}
	}
	if !sawBitmap {
		t.Error("no pattern dispatched a bitmap kernel on the hub-indexed graph")
	}
}

// TestHubIndexConcurrentQueries hammers one hub-indexed System from
// many goroutines: the hub index is shared read-only state under the
// work-stealing scheduler, so this is the -race check for the hybrid
// data plane.
func TestHubIndexConcurrentQueries(t *testing.T) {
	g := hubTestGraph(t)
	sys := NewSystem(g, Options{Threads: 4, CostModel: CostLocality})
	defer sys.Close()

	tri, err := PatternByName("clique-3")
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := PatternByName("cycle-4")
	if err != nil {
		t.Fatal(err)
	}
	wantTri, err := sys.GetPatternCount(tri)
	if err != nil {
		t.Fatal(err)
	}
	wantCyc, err := sys.GetPatternCount(cyc)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				if got, err := sys.GetPatternCount(tri); err != nil || got != wantTri {
					errs <- "triangle count changed under concurrency"
					return
				}
				if got, err := sys.GetPatternCount(cyc); err != nil || got != wantCyc {
					errs <- "cycle count changed under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestHubIndexRebuildVisibleToSystem: raising the threshold after a
// System was created must not change counts — the prepared-state cache
// detects the stale index and rebuilds its routing.
func TestHubIndexRebuildVisibleToSystem(t *testing.T) {
	g := hubTestGraph(t)
	sys := NewSystem(g, Options{Threads: 2, CostModel: CostLocality})
	defer sys.Close()
	tri, err := PatternByName("clique-3")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.GetPatternCount(tri)
	if err != nil {
		t.Fatal(err)
	}
	g.BuildHubIndex(g.NumVertices() + 1) // drop every hub
	got, err := sys.GetPatternCount(tri)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count changed after hub-index rebuild: %d vs %d", got, want)
	}
}
