package decomine

import (
	"testing"
	"time"
)

func TestGetPatternCountWithinBudgets(t *testing.T) {
	g := GenerateGNP(60, 0.12, 301)
	sys := testSystem(t, g)
	p, _ := PatternByName("house")
	// Unlimited budget completes.
	c1, timedOut, err := sys.GetPatternCountWithin(p, 0)
	if err != nil || timedOut {
		t.Fatalf("unlimited budget: %v timedOut=%v", err, timedOut)
	}
	c2, err := sys.GetPatternCount(p)
	if err != nil || c1 != c2 {
		t.Fatalf("budgeted count %d != plain %d (%v)", c1, c2, err)
	}
	// A generous budget also completes.
	if _, timedOut, err := sys.GetPatternCountWithin(p, time.Minute); err != nil || timedOut {
		t.Fatalf("generous budget: %v timedOut=%v", err, timedOut)
	}
}

func TestBudgetExpiryOnHeavyWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy workload")
	}
	// A dense-ish graph with a 6-vertex pattern and a 1ns budget must
	// report a timeout rather than run to completion.
	g := GenerateGNP(2000, 0.02, 302)
	sys := NewSystem(g, Options{Threads: 2, CostModel: CostLocality})
	p, _ := PatternByName("cycle-6")
	_, timedOut, err := sys.GetPatternCountWithin(p, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("nanosecond budget did not expire")
	}
}

func TestMotifCountsWithinMatchesUnbudgeted(t *testing.T) {
	g := GenerateGNP(50, 0.12, 303)
	sys := testSystem(t, g)
	within, timedOut, err := sys.MotifCountsWithin(4, time.Minute)
	if err != nil || timedOut {
		t.Fatalf("%v timedOut=%v", err, timedOut)
	}
	plain, err := sys.MotifCounts(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(within) != len(plain) {
		t.Fatalf("lengths %d vs %d", len(within), len(plain))
	}
	for i := range plain {
		if within[i].Count != plain[i].Count {
			t.Errorf("pattern %s: %d vs %d", plain[i].Pattern, within[i].Count, plain[i].Count)
		}
	}
}

func TestFSMWithinZeroBudgetEqualsPlain(t *testing.T) {
	g := GenerateGNP(40, 0.15, 304).WithRandomLabels(2, 305)
	sys := testSystem(t, g)
	a, timedOut, err := sys.FSMWithin(3, 2, 0)
	if err != nil || timedOut {
		t.Fatalf("%v %v", err, timedOut)
	}
	b, err := sys.FSM(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("FSMWithin %d patterns, FSM %d", len(a), len(b))
	}
}

func TestCycleAndPseudoCliqueWithin(t *testing.T) {
	g := GenerateGNP(50, 0.15, 306)
	sys := testSystem(t, g)
	c, timedOut, err := sys.CycleCountWithin(5, time.Minute)
	if err != nil || timedOut {
		t.Fatalf("%v %v", err, timedOut)
	}
	plain, _ := sys.CycleCount(5)
	if c != plain {
		t.Fatalf("cycle within %d != %d", c, plain)
	}
	pc, timedOut, err := sys.PseudoCliqueCountWithin(4, 1, time.Minute)
	if err != nil || timedOut {
		t.Fatalf("%v %v", err, timedOut)
	}
	plainPC, _ := sys.PseudoCliqueCount(4, 1)
	if pc != plainPC {
		t.Fatalf("pc within %d != %d", pc, plainPC)
	}
}

func TestWorkDistributionShape(t *testing.T) {
	g := GenerateGNP(200, 0.05, 307)
	sys := NewSystem(g, Options{Threads: 3, CostModel: CostLocality})
	p, _ := PatternByName("clique-3")
	work, err := sys.WorkDistribution(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(work) != 3 {
		t.Fatalf("work slots %d, want 3", len(work))
	}
	// WorkPerThread reports executed instructions; the run
	// certainly executes at least one instruction per vertex.
	var total int64
	for _, w := range work {
		total += w
	}
	if total < int64(g.NumVertices()) {
		t.Fatalf("total work %d < |V| %d", total, g.NumVertices())
	}
}

func TestCompileAndExecuteMotifsSplitsTime(t *testing.T) {
	g := GenerateGNP(60, 0.1, 308)
	sys := NewSystem(g, Options{Threads: 1, CostModel: CostLocality})
	compile, exec, timedOut, err := sys.CompileAndExecuteMotifs(3, time.Minute)
	if err != nil || timedOut {
		t.Fatalf("%v %v", err, timedOut)
	}
	if compile <= 0 || exec <= 0 {
		t.Fatalf("compile %v exec %v", compile, exec)
	}
}
