package decomine

// Differential and concurrency tests for the hybrid dense/sparse set
// kernels: every pattern must count identically — and match brute-force
// tuple enumeration — whether the VM routes through the hub
// bitmap index or runs pure sorted-array kernels (DisableHubIndex), and
// the shared read-only index must be race-free under the work-stealing
// scheduler (run under -race in CI).

import (
	"sync"
	"testing"

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

func TestHubIndexDifferentialMotifSuite(t *testing.T) {
	g := hubTestGraph(t)
	base := Options{Threads: 3, CostModel: CostLocality}
	hubOpts := base
	noHubOpts := base
	noHubOpts.DisableHubIndex = true
	hubSys := NewSystem(g, hubOpts)
	noHubSys := NewSystem(g, noHubOpts)
	defer hubSys.Close()
	defer noHubSys.Close()

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
			noHub, err := noHubSys.CountPattern(pp, QueryOpts{})
			if err != nil {
				t.Fatalf("k=%d #%d nohub: %v", k, i, err)
			}
			want := bruteEI(g, p)
			if hub.Count != want || noHub.Count != want {
				t.Errorf("k=%d pattern #%d (%s): hub %d, nohub %d, brute force %d",
					k, i, p, hub.Count, noHub.Count, want)
			}
			// The hub index changes kernel routes, never the plan: both
			// runs execute the same instruction stream.
			if hub.Stats.Exec.Instructions != noHub.Stats.Exec.Instructions {
				t.Errorf("k=%d pattern #%d: hub run executed %d instructions, nohub %d",
					k, i, hub.Stats.Exec.Instructions, noHub.Stats.Exec.Instructions)
			}
			if n := noHub.Stats.Exec.Kernels["bitmap"] + noHub.Stats.Exec.Kernels["bitmap-count"]; n != 0 {
				t.Errorf("k=%d pattern #%d: DisableHubIndex run dispatched %d bitmap kernels", k, i, n)
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
