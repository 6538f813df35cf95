package decomine

import (
	"errors"
	"testing"
	"time"

	"decomine/internal/pattern"
)

// TestGetPatternCountWithinBudgets: a zero deadline is the plain count,
// and a generous one changes neither the count nor the instructions.
func TestGetPatternCountWithinBudgets(t *testing.T) {
	g := GenerateGNP(60, 0.12, 301)
	sys := testSystem(t, g)
	defer sys.Close()
	p, _ := PatternByName("house")
	plain, err := sys.GetPatternCount(p)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := sys.CountPattern(p, QueryOpts{Deadline: time.Time{}})
	if err != nil || zero.Count != plain {
		t.Fatalf("zero deadline: count %d, plain %d (%v)", zero.Count, plain, err)
	}
	generous, err := sys.CountPattern(p, QueryOpts{Deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatalf("generous deadline: %v", err)
	}
	if generous.Count != plain || generous.Stats.Exec.Instructions != zero.Stats.Exec.Instructions {
		t.Fatalf("generous deadline: count %d instructions %d, want %d and %d",
			generous.Count, generous.Stats.Exec.Instructions, plain, zero.Stats.Exec.Instructions)
	}
}

// TestBudgetExpiryOnHeavyWorkload: a deadline already past on a query
// that would run for a long time cancels it — on the single-pattern
// path, its async handle, and the batch path alike.
func TestBudgetExpiryOnHeavyWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy workload")
	}
	g := GenerateGNP(2000, 0.02, 302)
	sys := NewSystem(g, Options{Threads: 2, CostModel: CostLocality})
	defer sys.Close()
	p, _ := PatternByName("cycle-6")
	past := time.Now().Add(-time.Second)
	if r, err := sys.CountPattern(p, QueryOpts{Deadline: past}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("CountPattern past deadline: got (%v, %v), want ErrCanceled", r, err)
	}
	if r, err := sys.CountPatternAsync(p, QueryOpts{Deadline: past}).Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("CountPatternAsync past deadline: got (%v, %v), want ErrCanceled", r, err)
	}
	if br, err := sys.CountPatterns([]*Pattern{p}, BatchOpts{Deadline: past}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("CountPatterns past deadline: got (%v, %v), want ErrCanceled", br, err)
	}
}

// TestMotifCountsWithinMatchesUnbudgeted: a vertex-induced batch over
// every 4-motif under a generous deadline is MotifCounts(4), class by
// class.
func TestMotifCountsWithinMatchesUnbudgeted(t *testing.T) {
	g := GenerateGNP(50, 0.12, 303)
	sys := testSystem(t, g)
	defer sys.Close()
	br, err := sys.CountPatterns(MotifPatterns(4), BatchOpts{Induced: true, Deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.MotifCounts(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(plain) {
		t.Fatalf("lengths %d vs %d", len(br.Results), len(plain))
	}
	for i := range plain {
		if br.Results[i].Count != plain[i].Count {
			t.Errorf("pattern %s: %d vs %d", plain[i].Pattern, br.Results[i].Count, plain[i].Count)
		}
	}
}

func TestFSMWithinZeroBudgetEqualsPlain(t *testing.T) {
	g := GenerateGNP(40, 0.15, 304).WithRandomLabels(2, 305)
	sys := testSystem(t, g)
	defer sys.Close()
	a, truncated, err := sys.FSMWithin(3, 2, 0)
	if err != nil || truncated {
		t.Fatalf("%v truncated=%v", err, truncated)
	}
	b, err := sys.FSM(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("FSMWithin %d patterns, FSM %d", len(a), len(b))
	}
	for i := range b {
		if a[i].Pattern.String() != b[i].Pattern.String() || a[i].Support != b[i].Support {
			t.Errorf("pattern %d: FSMWithin %s/%d, FSM %s/%d", i, a[i].Pattern, a[i].Support, b[i].Pattern, b[i].Support)
		}
	}
}

// TestCycleAndPseudoCliqueWithin: the deadline-carrying spellings of the
// cycle and pseudo-clique workloads agree with CycleCount and
// PseudoCliqueCount.
func TestCycleAndPseudoCliqueWithin(t *testing.T) {
	g := GenerateGNP(50, 0.15, 306)
	sys := testSystem(t, g)
	defer sys.Close()
	deadline := time.Now().Add(time.Minute)
	cycle, _ := PatternByName("cycle-5")
	c, err := sys.CountPattern(cycle, QueryOpts{Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := sys.CycleCount(5)
	if c.Count != plain {
		t.Fatalf("cycle with deadline %d != %d", c.Count, plain)
	}
	var pcs []*Pattern
	for _, q := range pattern.PseudoCliques(4, 1) {
		pcs = append(pcs, &Pattern{q})
	}
	br, err := sys.CountPatterns(pcs, BatchOpts{Induced: true, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	var pc int64
	for _, r := range br.Results {
		pc += r.Count
	}
	plainPC, _ := sys.PseudoCliqueCount(4, 1)
	if pc != plainPC {
		t.Fatalf("pseudo-clique batch %d != %d", pc, plainPC)
	}
}

// TestWorkDistributionShape: a run's Result.Stats.WorkPerThread has one
// slot per worker and accounts for the executed instructions.
func TestWorkDistributionShape(t *testing.T) {
	g := GenerateGNP(200, 0.05, 307)
	sys := NewSystem(g, Options{Threads: 3, CostModel: CostLocality})
	defer sys.Close()
	p, _ := PatternByName("clique-3")
	r, err := sys.CountPattern(p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	work := r.Stats.WorkPerThread
	if len(work) != 3 {
		t.Fatalf("work slots %d, want 3", len(work))
	}
	// The run certainly executes at least one instruction per vertex.
	var total int64
	for _, w := range work {
		total += w
	}
	if total < int64(g.NumVertices()) {
		t.Fatalf("total work %d < |V| %d", total, g.NumVertices())
	}
}

// TestCompileAndExecuteMotifsSplitsTime: on a fresh System a motif batch
// reports both compile and execution time; repeated, it compiles
// nothing and counts the same.
func TestCompileAndExecuteMotifsSplitsTime(t *testing.T) {
	g := GenerateGNP(60, 0.1, 308)
	sys := NewSystem(g, Options{Threads: 1, CostModel: CostLocality})
	defer sys.Close()
	cold, err := sys.CountPatterns(MotifPatterns(3), BatchOpts{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.CompileTime <= 0 || cold.Stats.ExecTime <= 0 {
		t.Fatalf("cold batch: compile %v exec %v", cold.Stats.CompileTime, cold.Stats.ExecTime)
	}
	warm, err := sys.CountPatterns(MotifPatterns(3), BatchOpts{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CompileTime != 0 {
		t.Fatalf("warm batch compiled for %v", warm.Stats.CompileTime)
	}
	for i := range cold.Results {
		if cold.Results[i].Count != warm.Results[i].Count {
			t.Errorf("member %d: cold %d, warm %d", i, cold.Results[i].Count, warm.Results[i].Count)
		}
	}
}
