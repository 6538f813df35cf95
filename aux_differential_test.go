package decomine

// Differential tests for auxiliary-graph materialization: every plan,
// lowered with the tables the cost arbiter accepts and lowered with
// every table rejected, must produce bit-identical counts that agree
// with the pattern-oblivious walker — on the clustered community graphs
// where the arbiter actually materializes tables, under work stealing
// (multiple threads), and with every legal table forced on.
// FuzzAuxGraphs extends the same oracle to fuzzer-chosen graphs,
// patterns and thread counts; CI runs it as a fuzz-smoke step and runs
// this file's deterministic tests under -race.

import (
	"math/rand"
	"strings"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/baseline"
	"decomine/internal/pattern"
)

// rejectAux lowers a plan with every auxiliary table rejected: the
// configuration the arbiter's verdicts are measured against.
var rejectAux = ast.LowerOpts{AuxDecide: func(*ast.AuxCandidate) ast.AuxVerdict { return ast.AuxVerdict{} }}

func auxSystem(t testing.TB, g *Graph, threads int, seed int64) *System {
	s := NewSystem(g, Options{
		Threads:            threads,
		Seed:               seed,
		ProfileSampleEdges: 2000,
		ProfileTrials:      1000,
	})
	t.Cleanup(s.Close)
	return s
}

// auxRun is one engine run of a plan, or of the plans a count
// composes: the count and the set-kernel element work.
type auxRun struct{ count, elems int64 }

// auxOnOff runs the plan s chooses for r twice through the engine:
// lowered as the search left it, with the tables the arbiter accepted,
// and lowered with every table rejected. Both sides are list forms
// (ast.LowerListForm): a local region's word form skips the tables it
// covers, which would make the two sides' element work the same.
func auxOnOff(t testing.TB, s *System, r planReq) (on, off auxRun) {
	t.Helper()
	e := mustPlan(t, s, r)
	run := func(code *ast.Lowered) auxRun {
		res, c := runCode(t, s.graph, e.plan, code, s.threads())
		var elems int64
		for _, n := range res.KernelElems {
			elems += n
		}
		return auxRun{count: c, elems: elems}
	}
	return run(ast.LowerListForm(e.plan.Prog, e.plan.LowerOpts)), run(ast.LowerListForm(e.plan.Prog, rejectAux))
}

func mustPlan(t testing.TB, s *System, r planReq) *planEntry {
	t.Helper()
	e, _, err := s.planFor(r)
	if err != nil {
		t.Fatalf("%s: %v", r.pat, err)
	}
	return e
}

// auxVI counts p vertex-induced with the plans
// GetPatternCountVertexInduced picks — the direct plan, unless the
// needs of p's inclusion-exclusion recipe cost less in all — running
// each plan through auxOnOff and composing each side's counts.
func auxVI(t testing.TB, s *System, p *pattern.Pattern) (on, off auxRun) {
	t.Helper()
	direct := planReq{pat: p, induced: true}
	m, err := s.batchMemberFor(&Pattern{p}, true)
	if err != nil {
		t.Fatal(err)
	}
	var indirect float64
	for _, q := range m.needPats {
		indirect += mustPlan(t, s, planReq{pat: q}).cost
	}
	if mustPlan(t, s, direct).cost <= indirect {
		return auxOnOff(t, s, direct)
	}
	onNeeds, offNeeds := map[pattern.Code]int64{}, map[pattern.Code]int64{}
	for j, q := range m.needPats {
		a, b := auxOnOff(t, s, planReq{pat: q})
		onNeeds[m.needs[j]], offNeeds[m.needs[j]] = a.count, b.count
		on.elems += a.elems
		off.elems += b.elems
	}
	if on.count, err = m.eval(onNeeds); err != nil {
		t.Fatal(err)
	}
	if off.count, err = m.eval(offNeeds); err != nil {
		t.Fatal(err)
	}
	return on, off
}

// TestAuxDifferentialPseudoCliques compares the deep pseudo-clique
// census — the workload family auxiliary graphs target — with the
// oblivious walker, and runs the census's plans with and without
// tables. Graphs are kept small enough for the oblivious
// k=5 census to stay cheap; the large-graph regime where the arbiter
// actually materializes is covered by TestAuxDifferentialMaterialized
// without the oracle.
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
		s := auxSystem(t, g, 4, 101)
		got, err := s.PseudoCliqueCount(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		census := baseline.ObliviousMotifCensus(g.g, 5)
		var want, gotOn, gotOff int64
		for _, p := range pattern.PseudoCliques(5, 1) {
			want += census[p.Canonical()]
			on, off := auxVI(t, s, p)
			gotOn += on.count
			gotOff += off.count
		}
		if got != want || gotOn != want || gotOff != want {
			t.Errorf("graph %d %s: census %d, aux-on %d, aux-off %d, oblivious %d", i, g, got, gotOn, gotOff, want)
		}
	}
}

// TestAuxDifferentialMaterialized runs the on/off comparison on a
// community graph large and clustered enough that the cost arbiter
// materializes tables (asserted via Explain), so the IAuxBuild/OpAuxRow
// execution path is exercised under work stealing. No oblivious oracle
// here — a k=5 census on a 512-vertex graph would dominate the test —
// bit-identity against the reject-all lowering is the check.
func TestAuxDifferentialMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	g := GenerateCommunity(512, 6, 16, 303)
	s := auxSystem(t, g, 4, 101)
	var workOn, workOff int64
	for _, p := range pattern.PseudoCliques(5, 1) {
		on, off := auxVI(t, s, p)
		if on.count != off.count {
			t.Fatalf("%s: aux-on %d, aux-off %d", p, on.count, off.count)
		}
		workOn += on.elems
		workOff += off.elems
	}
	// Materialized rows must pay for themselves: the deep loops scan at
	// least 1.2x fewer elements than with every table rejected.
	if float64(workOff) < 1.2*float64(workOn) {
		t.Errorf("aux rows cut set-kernel element work only %.2fx: %d on, %d off",
			float64(workOff)/float64(workOn), workOn, workOff)
	}
	ex, err := s.Explain(&Pattern{pattern.Clique(5)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "materialized a") {
		t.Fatalf("arbiter did not materialize on community(512,6,16); explain:\n%s", ex)
	}
}

// TestAuxDifferentialMergedCensus covers the 5-motif census, and runs
// the plan of every class it counts lowered three ways: as the arbiter
// chose, with every table rejected, and with every legal table forced
// on — exercising IAuxBuild and OpAuxRow reads under stealing
// regardless of estimator behavior.
func TestAuxDifferentialMergedCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	g := GenerateCommunity(64, 3, 8, 11)
	s := auxSystem(t, g, 4, 202)
	counts, err := s.MotifCounts(5)
	if err != nil {
		t.Fatal(err)
	}
	var got, want int64
	for _, mc := range counts {
		got += mc.Count
	}
	for _, c := range baseline.ObliviousMotifCensus(g.g, 5) {
		want += c
	}
	if got != want {
		t.Fatalf("census: %d, oblivious %d", got, want)
	}
	force := ast.LowerOpts{AuxDecide: func(*ast.AuxCandidate) ast.AuxVerdict { return ast.AuxVerdict{Materialize: true} }}
	forced := 0
	for _, q := range pattern.ConnectedPatterns(5) {
		r := planReq{pat: q}
		on, off := auxOnOff(t, s, r)
		e := mustPlan(t, s, r)
		code := ast.LowerWith(e.plan.Prog, force)
		forced += len(code.Aux)
		_, all := runCode(t, g, e.plan, code, 4)
		if on.count != off.count || all != off.count {
			t.Errorf("%s: aux-on %d, aux-off %d, all tables forced %d", q, on.count, off.count, all)
		}
	}
	if forced == 0 {
		t.Fatal("no 5-vertex class had a legal auxiliary table to force")
	}
}

// FuzzAuxGraphs is the fuzzing face of the same oracle: derive a
// graph, a connected pattern, and a thread count from the fuzz input,
// then require the vertex-induced count, and its plans run with and
// without tables, to agree with the oblivious walker.
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
		s := auxSystem(t, g, 1+r.Intn(4), r.Int63())
		got, err := s.GetPatternCountVertexInduced(&Pattern{p})
		if err != nil {
			t.Fatalf("%s on %s: %v", p, g, err)
		}
		want, err := baseline.ObliviousPatternCount(g.g, p)
		if err != nil {
			t.Fatal(err)
		}
		on, off := auxVI(t, s, p)
		if got != want || on.count != want || off.count != want {
			t.Fatalf("pattern %s on %s: count %d, aux-on %d, aux-off %d, oblivious %d",
				p, g, got, on.count, off.count, want)
		}
	})
}
