package decomine

import (
	"errors"
	"testing"
)

// TestInstructionBudget pins the fuel-check semantics the serving
// layer's admission control relies on: a query granted ample
// instructions completes with exactly the unbudgeted count and
// instruction total (the budget must not change the plan), and a query
// granted almost nothing aborts with ErrBudgetExceeded.
func TestInstructionBudget(t *testing.T) {
	g := GenerateGNP(400, 0.05, 311)
	sys := NewSystem(g, Options{Threads: 4, CostModel: CostLocality})
	defer sys.Close()
	p, _ := PatternByName("cycle-5")

	want, err := sys.CountPattern(p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// The fuel check fires once per ~2^14 executed instructions; a query
	// smaller than one window could never observe a starved budget, so
	// make sure the fixture is big enough to be meaningful.
	if want.Stats.Exec.Instructions < 1<<16 {
		t.Fatalf("fixture too small to exercise the fuel window: %d instructions", want.Stats.Exec.Instructions)
	}

	got, err := sys.CountPattern(p, QueryOpts{MaxInstructions: 100 * want.Stats.Exec.Instructions})
	if err != nil {
		t.Fatalf("ample budget: %v", err)
	}
	if got.Count != want.Count {
		t.Fatalf("budgeted count = %d, unbudgeted = %d", got.Count, want.Count)
	}
	if got.Stats.Exec.Instructions != want.Stats.Exec.Instructions {
		t.Fatalf("budgeted instructions = %d, unbudgeted = %d",
			got.Stats.Exec.Instructions, want.Stats.Exec.Instructions)
	}

	if _, err := sys.CountPattern(p, QueryOpts{MaxInstructions: 1}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("starved budget: got err %v, want ErrBudgetExceeded", err)
	}
}

// TestSharedFuelCounter runs two queries against one joint grant and
// checks the second is cut off by what the first spent.
func TestSharedFuelCounter(t *testing.T) {
	g := GenerateGNP(400, 0.05, 312)
	sys := NewSystem(g, Options{Threads: 2, CostModel: CostLocality})
	defer sys.Close()
	p, _ := PatternByName("cycle-5")

	r, err := sys.CountPattern(p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	o := QueryOpts{MaxInstructions: r.Stats.Exec.Instructions + r.Stats.Exec.Instructions/2}
	fuel := o.fuelCounter()
	if _, err := sys.CountPattern(p, QueryOpts{Fuel: fuel}); err != nil {
		t.Fatalf("first query on joint grant: %v", err)
	}
	if _, err := sys.CountPattern(p, QueryOpts{Fuel: fuel}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("second query on drained grant: got err %v, want ErrBudgetExceeded", err)
	}
}

// TestEstimateCostSharesPlanCache checks that pricing a query and then
// running it compiles once.
func TestEstimateCostSharesPlanCache(t *testing.T) {
	g := GenerateGNP(60, 0.1, 313)
	sys := NewSystem(g, Options{Threads: 1, CostModel: CostLocality})
	defer sys.Close()
	p := MustParsePattern("0-1,1-2")

	cost, err := sys.EstimateCost(p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("estimated cost = %v, want > 0", cost)
	}
	if st := sys.CacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after estimate: cache stats %+v, want exactly one miss", st)
	}
	if _, err := sys.CountPattern(p, QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("after estimate+run: cache stats %+v, want one miss then one hit", st)
	}
}

// TestSharedPool runs two Systems over different graphs on one shared
// pool and checks that closing one System leaves the pool usable by
// the other.
func TestSharedPool(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	s1 := NewSystem(GenerateGNP(80, 0.1, 314), Options{Threads: 4, CostModel: CostLocality, SharedPool: pool})
	s2 := NewSystem(GenerateGNP(80, 0.1, 315), Options{Threads: 4, CostModel: CostLocality, SharedPool: pool})
	p := MustParsePattern("0-1,1-2,2-0")
	c1, err := s1.GetPatternCount(p)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close() // must not tear down the shared pool
	c2, err := s2.GetPatternCount(p)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 || c2 <= 0 {
		t.Fatalf("triangle counts = %d, %d; want > 0", c1, c2)
	}
	s2.Close()
}
