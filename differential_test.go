package decomine

// Randomized differential tests: the full compiled system (search +
// decomposition + optimization + engine) against the pattern-oblivious
// reference on random graphs, random patterns and random labelings.
// These catch interaction bugs that the per-package unit tests cannot.

import (
	"math/rand"
	"testing"

	"decomine/internal/baseline"
	"decomine/internal/pattern"
)

// randomConnectedPattern draws a connected pattern with n vertices.
func randomConnectedPattern(r *rand.Rand, n int) *pattern.Pattern {
	for {
		p := pattern.New(n)
		// random spanning tree first: guarantees connectivity
		for v := 1; v < n; v++ {
			p.AddEdge(v, r.Intn(v))
		}
		extra := r.Intn(n)
		for i := 0; i < extra; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				p.AddEdge(u, v)
			}
		}
		if p.Connected() {
			return p
		}
	}
}

func TestDifferentialRandomPatternsEdgeInduced(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	r := rand.New(rand.NewSource(20260704))
	for trial := 0; trial < 12; trial++ {
		n := 3 + r.Intn(3) // 3..5 vertex patterns
		p := randomConnectedPattern(r, n)
		g := GenerateGNP(40+r.Intn(30), 0.08+r.Float64()*0.08, r.Int63())
		sys := NewSystem(g, Options{
			Threads:            1 + r.Intn(3),
			ProfileSampleEdges: 1000,
			ProfileTrials:      1000,
			Seed:               r.Int63(),
		})
		got, err := sys.GetPatternCount(&Pattern{p})
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, p, err)
		}
		want, err := baseline.ObliviousEdgeInducedCount(g.g, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("trial %d pattern %s on %s: DecoMine %d, oblivious %d",
				trial, p, g, got, want)
		}
	}
}

func TestDifferentialRandomPatternsVertexInduced(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	r := rand.New(rand.NewSource(42424242))
	for trial := 0; trial < 8; trial++ {
		n := 3 + r.Intn(2)
		p := randomConnectedPattern(r, n)
		g := GenerateGNP(35+r.Intn(25), 0.1+r.Float64()*0.08, r.Int63())
		sys := NewSystem(g, Options{
			Threads:            2,
			ProfileSampleEdges: 1000,
			ProfileTrials:      1000,
		})
		got, err := sys.GetPatternCountVertexInduced(&Pattern{p})
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, p, err)
		}
		want, err := baseline.ObliviousPatternCount(g.g, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("trial %d pattern %s: DecoMine vi %d, oblivious %d", trial, p, got, want)
		}
	}
}

func TestDifferentialLabeledPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 8; trial++ {
		n := 3 + r.Intn(2)
		p := randomConnectedPattern(r, n)
		numLabels := 2 + r.Intn(2)
		// Constrain a random subset of pattern vertices.
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				p.SetLabel(v, uint32(r.Intn(numLabels)))
			}
		}
		g := GenerateGNP(35+r.Intn(20), 0.12, r.Int63()).WithRandomLabels(numLabels, r.Int63())
		sys := NewSystem(g, Options{
			Threads:            2,
			ProfileSampleEdges: 1000,
			ProfileTrials:      1000,
		})
		got, err := sys.GetPatternCount(&Pattern{p})
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, p, err)
		}
		want := brute(g, p, nil).ei
		if got != want {
			t.Errorf("trial %d labeled pattern %s: DecoMine %d, brute %d", trial, p, got, want)
		}
	}
}

// TestDifferentialCountAllMixedPatterns counts random mixed 3–5-vertex
// patterns all in one CountPatterns batch and checks each member
// against the pattern-oblivious oracle.
func TestDifferentialCountAllMixedPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	r := rand.New(rand.NewSource(31337))
	g := GenerateGNP(60, 0.1, 5150)
	sys := NewSystem(g, Options{Threads: 2, ProfileSampleEdges: 1000, ProfileTrials: 1000})
	var pats []*Pattern
	for i := 0; i < 6; i++ {
		pats = append(pats, &Pattern{randomConnectedPattern(r, 3+r.Intn(3))})
	}
	batch, err := sys.CountPatterns(pats, BatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pats {
		want, err := baseline.ObliviousEdgeInducedCount(g.g, p.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := batch.Results[i].Count; got != want {
			t.Errorf("pattern %d (%s): CountPatterns %d, oblivious %d", i, p, got, want)
		}
	}
}

func TestDifferentialAblationConfigsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	// Every compiler configuration must count the same thing.
	g := GenerateGNP(45, 0.12, 6021)
	p, _ := PatternByName("house")
	configs := []Options{
		{},
		{DisableDecomposition: true},
		{DisableCountLastLoop: true},
		{CostModel: CostAutoMine},
		{CostModel: CostLocality},
		{Threads: 3},
	}
	var want int64 = -1
	for i, opt := range configs {
		opt.ProfileSampleEdges = 1000
		opt.ProfileTrials = 1000
		sys := NewSystem(g, opt)
		got, err := sys.GetPatternCount(p)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if want == -1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("config %d: count %d, want %d", i, got, want)
		}
	}
}
