package decomine

// Differential tests of the compiled stack (search, lowering, bytecode
// VM, stealing scheduler) against the brute-force oracles: every
// pattern in the seed suite must produce the oracle's count over both
// G(n,p) and R-MAT graphs, including labeled and constrained variants,
// and a run must observe cancellation mid-flight.

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"decomine/internal/baseline"
	"decomine/internal/pattern"
)

func TestVMDifferentialMotifSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	cases := []struct {
		name string
		g    *Graph
		maxK int
	}{
		{"gnp", GenerateGNP(70, 0.10, 1234), 5},
		{"rmat", GenerateRMAT(8, 6, 5678), 4},
	}
	for _, gc := range cases {
		sys := NewSystem(gc.g, Options{Threads: 3, CostModel: CostLocality})
		for k := 3; k <= gc.maxK; k++ {
			census := baseline.ObliviousMotifCensus(gc.g.g, k)
			for i, p := range pattern.ConnectedPatterns(k) {
				res, err := sys.CountPattern(&Pattern{p}, QueryOpts{})
				if err != nil {
					t.Fatalf("%s k=%d #%d: %v", gc.name, k, i, err)
				}
				if want := baseline.EdgeInducedFromCensus(census, p); res.Count != want {
					t.Errorf("%s k=%d pattern #%d (%s): got %d, oblivious %d",
						gc.name, k, i, p, res.Count, want)
				}
				if res.Stats.Exec.Instructions == 0 {
					t.Errorf("%s k=%d pattern #%d: run reported no executed instructions", gc.name, k, i)
				}
			}
		}
		sys.Close()
	}
}

// sixVertexPatterns returns the 6-vertex motifs used by the suite: the
// path, the cycle, and a triangle with a 3-vertex tail.
func sixVertexPatterns() []*pattern.Pattern {
	path := pattern.New(6)
	for v := 0; v < 5; v++ {
		path.AddEdge(v, v+1)
	}
	cycle := pattern.New(6)
	for v := 0; v < 6; v++ {
		cycle.AddEdge(v, (v+1)%6)
	}
	tadpole := pattern.New(6)
	tadpole.AddEdge(0, 1)
	tadpole.AddEdge(1, 2)
	tadpole.AddEdge(2, 0)
	tadpole.AddEdge(2, 3)
	tadpole.AddEdge(3, 4)
	tadpole.AddEdge(4, 5)
	return []*pattern.Pattern{path, cycle, tadpole}
}

func TestVMDifferentialSixVertexMotifs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	g := GenerateGNP(55, 0.09, 97531)
	sys := NewSystem(g, Options{Threads: 2, CostModel: CostLocality})
	defer sys.Close()
	census := baseline.ObliviousMotifCensus(g.g, 6)
	for i, p := range sixVertexPatterns() {
		got, err := sys.GetPatternCount(&Pattern{p})
		if err != nil {
			t.Fatalf("6-vertex #%d: %v", i, err)
		}
		if want := baseline.EdgeInducedFromCensus(census, p); got != want {
			t.Errorf("6-vertex pattern #%d (%s): got %d, oblivious %d", i, p, got, want)
		}
	}
}

func TestVMDifferentialLabeledAndConstrained(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	r := rand.New(rand.NewSource(8642))
	g := GenerateGNP(50, 0.12, 13579).WithRandomLabels(3, 24680)
	sys := NewSystem(g, Options{Threads: 2, CostModel: CostLocality})
	defer sys.Close()

	// Labeled patterns: random subset of vertices pinned to labels.
	for trial := 0; trial < 6; trial++ {
		p := randomConnectedPattern(r, 3+r.Intn(3))
		for v := 0; v < p.NumVertices(); v++ {
			if r.Intn(2) == 0 {
				p.SetLabel(v, uint32(r.Intn(3)))
			}
		}
		got, err := sys.GetPatternCount(&Pattern{p})
		if err != nil {
			t.Fatalf("labeled trial %d: %v", trial, err)
		}
		if want := brute(g, p, nil).ei; got != want {
			t.Errorf("labeled trial %d (%s): got %d, brute force %d", trial, p, got, want)
		}
	}

	// Group label constraints (hash-table plans).
	p, err := PatternByName("fig6")
	if err != nil {
		t.Fatal(err)
	}
	cons := []LabelConstraint{
		{Kind: AllDifferentLabels, Vertices: []int{0, 1, 2}},
		{Kind: AllSameLabel, Vertices: []int{1, 3, 4}},
	}
	got, err := sys.CountWithConstraints(p, cons)
	if err != nil {
		t.Fatalf("constrained: %v", err)
	}
	if want := brute(g, p.p, cons).constrained; got != want {
		t.Errorf("constrained fig6: got %d, brute force %d", got, want)
	}
}

func TestVMDifferentialCancellationMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	// A run far too large for a 1ms deadline (the full run takes seconds
	// single-threaded): the in-line driver must observe the cancellation
	// mid-run and report ErrCanceled rather than hanging or returning a
	// bogus full count. The plan is compiled first so the deadline falls
	// inside execution.
	g := GenerateRMAT(10, 8, 2468)
	cycle5 := pattern.New(5)
	for v := 0; v < 5; v++ {
		cycle5.AddEdge(v, (v+1)%5)
	}
	sys := NewSystem(g, Options{Threads: 1, CostModel: CostLocality})
	p := &Pattern{cycle5}
	if _, err := sys.EstimateCost(p, QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	r, err := sys.CountPattern(p, QueryOpts{Deadline: time.Now().Add(time.Millisecond)})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("1ms deadline on 5-cycle over %s: got (%v, %v), want ErrCanceled", g, r, err)
	}
}
