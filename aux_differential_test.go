package decomine

// Differential tests for auxiliary-graph materialization: the same
// query with the pass on, with the pass off (Options.DisableAuxGraphs),
// and against the pattern-oblivious tree walker must produce
// bit-identical counts — on the clustered community graphs where the
// cost model actually materializes tables, under work stealing
// (multiple threads), and on the structurally-decided merged-census
// path. FuzzAuxGraphs extends the same oracle to fuzzer-chosen graphs,
// patterns and thread counts; CI runs it as a fuzz-smoke step and runs
// this file's deterministic tests under -race.

import (
	"math/rand"
	"strings"
	"testing"

	"decomine/internal/baseline"
	"decomine/internal/engine"
	"decomine/internal/obs"
	"decomine/internal/pattern"
)

func auxPair(t testing.TB, g *Graph, threads int, seed int64) (on, off *System) {
	opts := Options{
		Threads:            threads,
		Seed:               seed,
		ProfileSampleEdges: 2000,
		ProfileTrials:      1000,
	}
	on = NewSystem(g, opts)
	opts.DisableAuxGraphs = true
	off = NewSystem(g, opts)
	t.Cleanup(func() { on.Close(); off.Close() })
	return on, off
}

// TestAuxDifferentialPseudoCliques compares the deep pseudo-clique
// census — the workload family auxiliary graphs target — across
// aux-on, aux-off, and the oblivious walker. Graphs are kept small
// enough for the oblivious k=5 census to stay cheap; the large-graph
// regime where the arbiter actually materializes is covered by
// TestAuxDifferentialMaterialized without the oracle.
func TestAuxDifferentialPseudoCliques(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	graphs := []*Graph{
		GenerateCommunity(56, 2, 7, 7),
		GenerateCommunity(64, 2, 6, 8),
		GenerateGNP(56, 0.12, 9),
	}
	for i, g := range graphs {
		on, off := auxPair(t, g, 4, 101)
		gotOn, err := on.PseudoCliqueCount(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotOff, err := off.PseudoCliqueCount(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gotOn != gotOff {
			t.Errorf("graph %d %s: aux-on %d, aux-off %d", i, g, gotOn, gotOff)
		}
		census := baseline.ObliviousMotifCensus(g.g, 5)
		var want int64
		for _, p := range pattern.PseudoCliques(5, 1) {
			want += census[p.Canonical()]
		}
		if gotOn != want {
			t.Errorf("graph %d %s: aux-on %d, oblivious %d", i, g, gotOn, want)
		}
	}
}

// TestAuxDifferentialMaterialized runs the on/off comparison on a
// community graph large and clustered enough that the cost arbiter
// materializes tables (asserted via Explain), so the IAuxBuild/OpAuxRow
// execution path is exercised under work stealing. No oblivious oracle
// here — a k=5 census on a 512-vertex graph would dominate the test —
// bit-identity against the off System is the check.
func TestAuxDifferentialMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	g := GenerateCommunity(512, 6, 16, 303)
	on, off := auxPair(t, g, 4, 101)
	// count runs the census and returns it with the set-kernel element
	// work it did, which is schedule-invariant.
	count := func(s *System) (int64, int64) {
		base := obs.Default.Snapshot()
		c, err := s.PseudoCliqueCount(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		var work int64
		for _, name := range engine.KernelNames {
			work += obs.Default.CounterDelta(base, "engine.kernel_elems."+name)
		}
		return c, work
	}
	gotOn, workOn := count(on)
	gotOff, workOff := count(off)
	if gotOn != gotOff {
		t.Fatalf("materialized census: aux-on %d, aux-off %d", gotOn, gotOff)
	}
	// Materialized rows must pay for themselves: the deep loops scan at
	// least 1.2x fewer elements than with the pass off.
	if float64(workOff) < 1.2*float64(workOn) {
		t.Errorf("aux rows cut set-kernel element work only %.2fx: %d on, %d off",
			float64(workOff)/float64(workOn), workOn, workOff)
	}
	ex, err := on.Explain(&Pattern{pattern.Clique(5)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "materialized a") {
		t.Fatalf("arbiter did not materialize on community(512,6,16); explain:\n%s", ex)
	}
}

// TestAuxDifferentialMergedCensus covers the merged-AST motif census,
// which arbitrates with the structural default (no cost model) and so
// always materializes on clique-census shapes — exercising IAuxBuild
// and OpAuxRow reads under stealing regardless of estimator behavior.
func TestAuxDifferentialMergedCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	g := GenerateCommunity(64, 3, 8, 11)
	on, off := auxPair(t, g, 4, 202)
	gotOn, err := on.TotalMotifCount(5)
	if err != nil {
		t.Fatal(err)
	}
	gotOff, err := off.TotalMotifCount(5)
	if err != nil {
		t.Fatal(err)
	}
	if gotOn != gotOff {
		t.Fatalf("merged census: aux-on %d, aux-off %d", gotOn, gotOff)
	}
	census := baseline.ObliviousMotifCensus(g.g, 5)
	var want int64
	for _, c := range census {
		want += c
	}
	if gotOn != want {
		t.Fatalf("merged census: aux-on %d, oblivious %d", gotOn, want)
	}
}

// FuzzAuxGraphs is the fuzzing face of the same oracle: derive a
// graph, a connected pattern, and a thread count from the fuzz input,
// then require aux-on, aux-off, and the oblivious walker to agree on
// the vertex-induced count.
func FuzzAuxGraphs(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(48))
	f.Add(int64(-7777))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var g *Graph
		if r.Intn(2) == 0 {
			g = GenerateCommunity(40+r.Intn(32), 2, 5+r.Intn(4), r.Int63())
		} else {
			g = GenerateGNP(32+r.Intn(24), 0.08+r.Float64()*0.08, r.Int63())
		}
		n := 4 + r.Intn(2)
		p := randomConnectedPattern(r, n)
		// Bias toward dense patterns: deep loops with pruned sets are
		// where the aux pass finds candidates.
		for i := 0; i < n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				p.AddEdge(u, v)
			}
		}
		on, off := auxPair(t, g, 1+r.Intn(4), r.Int63())
		gotOn, err := on.GetPatternCountVertexInduced(&Pattern{p})
		if err != nil {
			t.Fatalf("%s on %s: %v", p, g, err)
		}
		gotOff, err := off.GetPatternCountVertexInduced(&Pattern{p})
		if err != nil {
			t.Fatalf("%s on %s: %v", p, g, err)
		}
		if gotOn != gotOff {
			t.Fatalf("pattern %s on %s: aux-on %d, aux-off %d", p, g, gotOn, gotOff)
		}
		want, err := baseline.ObliviousPatternCount(g.g, p)
		if err != nil {
			t.Fatal(err)
		}
		if gotOn != want {
			t.Fatalf("pattern %s on %s: aux-on %d, oblivious %d", p, g, gotOn, want)
		}
	})
}
