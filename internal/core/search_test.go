package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/cost"
	"decomine/internal/decomp"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

func searchModel(g *graph.Graph) cost.Model {
	return cost.NewLocality(cost.StatsOf(g), 0.25)
}

func TestSearchFindsCorrectPlans(t *testing.T) {
	g := graph.GNP(60, 0.12, 91)
	for _, p := range []*pattern.Pattern{
		pattern.Chain(4), pattern.Cycle(5), pattern.House(), pattern.Clique(4),
	} {
		best, all, err := Search(p, SearchOptions{Model: searchModel(g)})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) == 0 {
			t.Fatalf("%s: empty candidate list", p)
		}
		want := bruteTuples(g, p, false) / p.AutomorphismCount()
		if got := runPlan(t, g, best.Plan, 2); got != want {
			t.Errorf("%s best plan (%s): got %d, want %d", p, best.Plan.Desc, got, want)
		}
		// Costs are sorted ascending.
		for i := 1; i < len(all); i++ {
			if all[i-1].Cost > all[i].Cost {
				t.Fatalf("%s: candidates not sorted", p)
			}
		}
	}
}

func TestSearchCliqueFallsBackToDirect(t *testing.T) {
	// Cliques have no cutting set: the search must return a direct plan
	// (paper §3.1: "this pattern cannot benefit from pattern
	// decomposition").
	g := graph.GNP(50, 0.2, 92)
	best, _, err := Search(pattern.Clique(4), SearchOptions{Model: searchModel(g)})
	if err != nil {
		t.Fatal(err)
	}
	if best.Plan.Kind != "direct" {
		t.Fatalf("clique plan kind = %s", best.Plan.Kind)
	}
}

func TestSearchDecompositionPreferredForDecomposable(t *testing.T) {
	// For a 5-cycle on a large sparse graph the decomposition should win
	// under any of the models (its loop depth is smaller).
	g := graph.MustDataset("wk")
	best, _, err := Search(pattern.Cycle(5), SearchOptions{Model: searchModel(g), Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if best.Plan.Kind != "decomposed" {
		t.Logf("note: best plan for 5-cycle is %s (cost model chose direct)", best.Plan.Desc)
	}
}

func TestSearchRespectsDisables(t *testing.T) {
	g := graph.GNP(50, 0.1, 93)
	p := pattern.Cycle(4)
	best, all, err := Search(p, SearchOptions{Model: searchModel(g), DisableDecomposition: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		if !strings.HasPrefix(c.Desc, "direct") {
			t.Fatalf("decomposition candidate despite disable: %s", c.Desc)
		}
	}
	_ = best
	best2, all2, err := Search(p, SearchOptions{Model: searchModel(g), DisableDirect: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all2 {
		if !strings.HasPrefix(c.Desc, "decomposed") {
			t.Fatalf("direct candidate despite disable: %s", c.Desc)
		}
	}
	want := bruteTuples(g, p, false) / p.AutomorphismCount()
	if got := runPlan(t, g, best2.Plan, 1); got != want {
		t.Errorf("decomposed-only best: got %d, want %d", got, want)
	}
}

func TestSearchInducedMode(t *testing.T) {
	g := graph.GNP(50, 0.12, 94)
	p := pattern.Chain(4)
	best, _, err := Search(p, SearchOptions{Model: searchModel(g), Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTuples(g, p, true) / p.AutomorphismCount()
	if got := runPlan(t, g, best.Plan, 1); got != want {
		t.Errorf("induced best: got %d, want %d", got, want)
	}
}

func TestSearchWithApproxMiningModel(t *testing.T) {
	g := graph.MustDataset("ee")
	prof := sampling.BuildProfile(g, sampling.Options{SampleEdges: 4000, Trials: 4000, Seed: 9})
	model := cost.NewApproxMining(cost.StatsOf(g), prof)
	best, _, err := Search(pattern.House(), SearchOptions{Model: model, Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	small := g.EdgeSampledSubgraph(1500, 3)
	want := bruteTuples(small, pattern.House(), false) / pattern.House().AutomorphismCount()
	if got := runPlan(t, small, best.Plan, 2); got != want {
		t.Errorf("approx-model best on sample: got %d, want %d", got, want)
	}
}

// searchOutcome is what one search returns that parallel preparation
// must not change.
type searchOutcome struct {
	plan  string
	costs []float64
	cands int
}

// searchSequence runs a fixed sequence of searches against a fresh
// approximate-mining profile: every 5-vertex motif and a stride of the
// 6-vertex ones edge-induced, again with the best plan's shrinkage
// quotients externalized, every 5-vertex motif vertex-induced, and a
// few labeled patterns. The profile estimates every prefix shape on
// first demand, from whichever worker costs a candidate first, so the
// sequence fails to reproduce if an estimate ever depends on which
// worker asked, in which spelling, or when.
func searchSequence(t testing.TB, g *graph.Graph, workers int) []searchOutcome {
	prof := sampling.BuildProfile(g, sampling.Options{SampleEdges: 2000, Trials: 300, Seed: 5})
	model := cost.NewApproxMining(cost.StatsOf(g), prof)
	var out []searchOutcome
	search := func(p *pattern.Pattern, opts SearchOptions) *Candidate {
		var stats SearchStats
		opts.Model, opts.Workers, opts.Stats = model, workers, &stats
		best, all, err := Search(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		o := searchOutcome{plan: ast.Print(best.Plan.Prog), cands: stats.Candidates}
		for _, c := range all {
			o.costs = append(o.costs, c.Cost)
		}
		out = append(out, o)
		return best
	}
	pats := pattern.ConnectedPatterns(5)
	six := pattern.ConnectedPatterns(6)
	for i := 0; i < len(six); i += 14 {
		pats = append(pats, six[i])
	}
	for _, p := range pats {
		best := search(p, SearchOptions{Mode: ModeCount})
		if len(best.Plan.Shrink) > 0 {
			skip := map[pattern.Code]bool{}
			for _, sh := range best.Plan.Shrink {
				skip[sh.Code] = true
			}
			search(p, SearchOptions{Mode: ModeCount, SkipShrinkCodes: skip})
		}
	}
	for _, p := range pattern.ConnectedPatterns(5) {
		search(p, SearchOptions{Mode: ModeCount, Induced: true})
	}
	for i, p := range []*pattern.Pattern{pattern.House(), pattern.Cycle(5), six[40]} {
		q := p.Clone()
		for v := 0; v < q.NumVertices(); v += 2 {
			q.SetLabel(v, uint32(i+v)%3)
		}
		search(q, SearchOptions{Mode: ModeCount})
	}
	return out
}

func TestSearchParallelDeterministic(t *testing.T) {
	g := graph.GNP(150, 0.05, 17)
	seq, par := searchSequence(t, g, 1), searchSequence(t, g, 4)
	if len(seq) != len(par) {
		t.Fatalf("%d searches with 1 worker, %d with 4", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.cands != p.cands {
			t.Errorf("search %d: %d candidates with 1 worker, %d with 4", i, s.cands, p.cands)
		}
		if s.plan != p.plan {
			t.Errorf("search %d: best plan differs\n1 worker:\n%s\n4 workers:\n%s", i, s.plan, p.plan)
		}
		if len(s.costs) != len(p.costs) {
			t.Errorf("search %d: %d ranked costs with 1 worker, %d with 4", i, len(s.costs), len(p.costs))
			continue
		}
		for j := range s.costs {
			if s.costs[j] != p.costs[j] {
				t.Errorf("search %d: ranked cost %d is %v with 1 worker, %v with 4", i, j, s.costs[j], p.costs[j])
				break
			}
		}
	}
}

// TestSearchConcurrentSharedProfile: searches running at once over one
// shared approximate-mining model, each asking for its patterns in its
// own shuffled order, pick the plans and ranked costs a single
// sequential run over a fresh model picks.
func TestSearchConcurrentSharedProfile(t *testing.T) {
	g := graph.GNP(150, 0.05, 19)
	newModel := func() cost.Model {
		return cost.NewApproxMining(cost.StatsOf(g), sampling.BuildProfile(g, sampling.Options{SampleEdges: 2000, Trials: 300, Seed: 6}))
	}
	pats := pattern.ConnectedPatterns(5)
	for i, p := range []*pattern.Pattern{pattern.House(), pattern.Cycle(5), pattern.Chain(4)} {
		q := p.Clone()
		for v := 0; v < q.NumVertices(); v += 2 {
			q.SetLabel(v, uint32(i+v)%3)
		}
		pats = append(pats, q)
	}
	outcome := func(model cost.Model, p *pattern.Pattern, workers int) searchOutcome {
		best, all, err := Search(p, SearchOptions{Model: model, Mode: ModeCount, Workers: workers})
		if err != nil {
			t.Errorf("%s: %v", p, err)
			return searchOutcome{}
		}
		o := searchOutcome{plan: ast.Print(best.Plan.Prog), cands: len(all)}
		for _, c := range all {
			o.costs = append(o.costs, c.Cost)
		}
		return o
	}
	want := make([]searchOutcome, len(pats))
	seqModel := newModel()
	for i, p := range pats {
		want[i] = outcome(seqModel, p, 1)
	}

	shared := newModel()
	const searchers = 4
	got := make([][]searchOutcome, searchers)
	var wg sync.WaitGroup
	for s := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[s] = make([]searchOutcome, len(pats))
			for _, i := range rand.New(rand.NewSource(int64(s))).Perm(len(pats)) {
				got[s][i] = outcome(shared, pats[i], 2)
			}
		}()
	}
	wg.Wait()
	for s := range got {
		for i, p := range pats {
			w, o := want[i], got[s][i]
			if o.plan != w.plan {
				t.Errorf("searcher %d, %s: best plan differs from the sequential run\n%s\nwant\n%s", s, p, o.plan, w.plan)
			}
			if !slices.Equal(o.costs, w.costs) {
				t.Errorf("searcher %d, %s: ranked costs differ from the sequential run", s, p)
			}
		}
	}
}

func TestSearchMaxCandidatesParallel(t *testing.T) {
	// The cap keeps the first MaxCandidates candidates in spec order no
	// matter how far the workers ran ahead.
	g := graph.GNP(60, 0.1, 18)
	p := pattern.ConnectedPatterns(6)[40]
	for _, limit := range []int{1, 7, 30} {
		var descs [2][]string
		for k, workers := range []int{1, 4} {
			var stats SearchStats
			_, all, err := Search(p, SearchOptions{Model: searchModel(g), MaxCandidates: limit, Workers: workers, Stats: &stats})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Candidates != limit {
				t.Fatalf("limit %d, %d workers: %d candidates", limit, workers, stats.Candidates)
			}
			for _, c := range all {
				descs[k] = append(descs[k], c.Desc)
			}
		}
		if strings.Join(descs[0], "\n") != strings.Join(descs[1], "\n") {
			t.Errorf("limit %d: ranked candidates differ between 1 and 4 workers", limit)
		}
	}
}

// BenchmarkSearchSixMotifs searches the 28 six-vertex motifs the
// compile6-cold-gnp ledger workload counts (one of every four
// MotifPatterns(6), drawn and ordered by seed 1, on G(240, 0.025) seed
// 1) with a fresh approximate-mining profile per iteration, as a cold
// System would: building the profile only samples edges, and every
// estimate is made inside the timed searches. The serial variant runs
// the searches one after another with workers following GOMAXPROCS, so
// -cpu 1,2 compares inline with parallel preparation; the wave variant
// sends them through Wave, side by side at one worker each, the way a
// batch plans its needs. ns/candidate divides by the distinct plans
// ranked, ns/spec by every spec considered, twins included; twins/op
// counts the specs skipped because an earlier spec generates the same
// program.
func BenchmarkSearchSixMotifs(b *testing.B) {
	g := graph.GNP(240, 0.025, 1)
	all := pattern.ConnectedPatterns(6)
	draw := rand.New(rand.NewSource(1))
	var pats []*pattern.Pattern
	for i := 0; i+4 <= len(all); i += 4 {
		pats = append(pats, all[i+draw.Intn(4)])
	}
	rand.New(rand.NewSource(1)).Shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
	for _, variant := range []struct {
		name string
		run  func(n int, search func(i, workers int))
	}{
		{"serial", func(n int, search func(i, workers int)) {
			for i := 0; i < n; i++ {
				search(i, 0)
			}
		}},
		{"wave", func(n int, search func(i, workers int)) { Wave(n, runtime.GOMAXPROCS(0), search) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			stats := make([]SearchStats, len(pats))
			cands, specs, twins := 0, 0, 0
			for i := 0; i < b.N; i++ {
				model := cost.NewApproxMining(cost.StatsOf(g), sampling.BuildProfile(g, sampling.Options{Seed: 1000}))
				variant.run(len(pats), func(k, workers int) {
					if _, _, err := Search(pats[k], SearchOptions{Model: model, Mode: ModeCount, Workers: workers, Stats: &stats[k]}); err != nil {
						b.Error(err)
					}
				})
				for _, st := range stats {
					cands += st.Candidates
					specs += st.Candidates + st.Twins
					twins += st.Twins
				}
			}
			b.ReportMetric(float64(twins)/float64(b.N), "twins/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cands), "ns/candidate")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(specs), "ns/spec")
		})
	}
}

func TestRandomSpecsAreCorrect(t *testing.T) {
	g := graph.GNP(45, 0.14, 95)
	r := rand.New(rand.NewSource(11))
	for _, p := range []*pattern.Pattern{pattern.Cycle(4), pattern.House(), pattern.TailedTriangle()} {
		want := bruteTuples(g, p, false) / p.AutomorphismCount()
		for i := 0; i < 15; i++ {
			plan, err := RandomSpec(p, ModeCount, r)
			if err != nil {
				t.Fatal(err)
			}
			if got := runPlan(t, g, plan, 1); got != want {
				t.Errorf("%s random plan %d (%s): got %d, want %d", p, i, plan.Desc, got, want)
			}
		}
	}
}

func TestMatchingOrdersConnected(t *testing.T) {
	p := pattern.Chain(4)
	orders := matchingOrders(p, 100)
	for _, o := range orders {
		for i := 1; i < len(o); i++ {
			adj := false
			for j := 0; j < i; j++ {
				if p.HasEdge(o[i], o[j]) {
					adj = true
				}
			}
			if !adj {
				t.Fatalf("order %v not connected", o)
			}
		}
	}
	// P4 connected orders: count manually = 2 endpoints*... just require
	// more than 1 and fewer than 4! = 24.
	if len(orders) <= 1 || len(orders) >= 24 {
		t.Fatalf("unexpected connected order count %d", len(orders))
	}
}

// rankModels are the three cost models the search ranks with: the
// random-graph model, the locality model and the approximate-mining
// model over a fresh profile.
func rankModels(g *graph.Graph) []cost.Model {
	st := cost.StatsOf(g)
	return []cost.Model{
		cost.NewAutoMine(st),
		cost.NewLocality(st, 0.25),
		cost.NewApproxMining(st, sampling.BuildProfile(g, sampling.Options{SampleEdges: 2000, Trials: 300, Seed: 8})),
	}
}

// generated runs one spec's generator.
func generated(t testing.TB, s candidateSpec) *Plan {
	t.Helper()
	plan, err := s.gen(nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// treeDiff describes the first difference between two programs, field
// by field and node by node, loop metadata included ("" when equal).
// Equal trees print equally: ast.Print reads nothing else.
func treeDiff(a, b *ast.Program) string {
	ha, hb := *a, *b
	ha.Root, hb.Root = nil, nil
	if !reflect.DeepEqual(ha, hb) {
		return fmt.Sprintf("headers %+v vs %+v", ha, hb)
	}
	// The node's comparable fields, spelled out: reflect.DeepEqual per
	// node would double the test's run time.
	type flat struct {
		kind                                            ast.Kind
		loopVar, over, dst, a, b, v, sa, sb, table, sub int
		op                                              ast.SetOp
		sop                                             ast.ScalarOp
		imm                                             int64
	}
	flatten := func(n *ast.Node) flat {
		return flat{n.Kind, n.Var, n.Over, n.Dst, n.A, n.B, n.V, n.SA, n.SB, n.Table, n.Sub, n.Op, n.SOp, n.Imm}
	}
	var diff func(x, y *ast.Node) string
	diff = func(x, y *ast.Node) string {
		if flatten(x) != flatten(y) || !slices.Equal(x.Keys, y.Keys) || len(x.Body) != len(y.Body) {
			return fmt.Sprintf("node %+v vs %+v", *x, *y)
		}
		if (x.Meta == nil) != (y.Meta == nil) {
			return "loop metadata on one side only"
		}
		if mx, my := x.Meta, y.Meta; mx != nil {
			if mx.PrefixCode != my.PrefixCode || mx.Constraints != my.Constraints || mx.Subtractions != my.Subtractions ||
				mx.Trimmed != my.Trimmed || (mx.Prefix == nil) != (my.Prefix == nil) || mx.Prefix != nil && !mx.Prefix.Equal(my.Prefix) {
				return fmt.Sprintf("loop v%d metadata %+v vs %+v", x.Var, *mx, *my)
			}
		}
		for i := range x.Body {
			if d := diff(x.Body[i], y.Body[i]); d != "" {
				return d
			}
		}
		return ""
	}
	return diff(a.Root, b.Root)
}

// rankedCost is what Search ranks a candidate by when it arbitrates its
// auxiliary tables: the model cost with RankAdjust folded in.
func rankedCost(m cost.Model, plan *Plan) (raw, adjusted float64) {
	raw = m.Cost(plan.Prog)
	arb := cost.AuxDecider(m, plan.Prog)
	if arb == nil {
		return raw, raw
	}
	opts := ast.LowerOpts{AuxDecide: arb.Decide}
	return raw, arb.RankAdjust(raw, ast.AuxDecisions(plan.Prog, opts))
}

// twinCase is one search TestTwinCutsGenerateIdenticalPrograms checks.
type twinCase struct {
	p    *pattern.Pattern
	opts SearchOptions
}

// twinCases are the searches checked for a pattern: both modes,
// unlabeled and unconstrained, and, when all is set, with alternating
// labels and with a label constraint as well.
func twinCases(p *pattern.Pattern, all bool) []twinCase {
	cons := []LabelConstraint{{Kind: AllDifferent, Verts: []int{0, 1}}}
	var out []twinCase
	for _, mode := range []Mode{ModeCount, ModeEmit} {
		opts := SearchOptions{Mode: mode, DisableDirect: true}
		out = append(out, twinCase{p, opts})
		if all {
			constrained := opts
			constrained.Constraints = cons
			out = append(out, twinCase{alternateLabels(p), opts}, twinCase{p, constrained})
		}
	}
	return out
}

// TestTwinCutsGenerateIdenticalPrograms: for every connected pattern of
// 3–6 vertices in both modes, and for all of 3–5 vertices and every
// fifth of 6 also with alternating labels and with a label constraint,
// each spec Search skips as a twin (a twin cutting set's spec or a PLR
// spec within a cut) generates the same program — every node, loop
// metadata and plan count metadata — as its first-occurrence
// counterpart, or fails as it does. Every twentieth pair is also
// optimized, printed and costed under all three models, with and
// without the auxiliary-table rank adjustment.
func TestTwinCutsGenerateIdenticalPrograms(t *testing.T) {
	g := graph.GNP(120, 0.06, 23)
	models := rankModels(g)
	pairs, costed, plrPairs, constrained := 0, 0, 0, 0
	for k := 3; k <= 6; k++ {
		for pi, base := range pattern.ConnectedPatterns(k) {
			for _, c := range twinCases(base, k < 6 || pi%5 == 0) {
				p, opts := c.p, c.opts
				specs := candidateGenerators(p, opts)
				// Only a label constraint may fail to generate (it can
				// be indecomposable over a cut); a twin must then fail
				// as its counterpart does.
				gen := func(s candidateSpec) *Plan {
					if len(opts.Constraints) == 0 {
						return generated(t, s)
					}
					plan, _ := s.gen(nil)
					return plan
				}
				first := map[int]*Plan{}
				for i, s := range specs {
					if s.twin < 0 {
						continue
					}
					if s.twin >= i || specs[s.twin].twin >= 0 {
						t.Fatalf("%s: spec %d names %d, which is not an earlier first occurrence", p, i, s.twin)
					}
					a, ok := first[s.twin]
					if !ok {
						a = gen(specs[s.twin])
						first[s.twin] = a
					}
					b := gen(s)
					if a == nil || b == nil {
						if (a == nil) != (b == nil) {
							t.Fatalf("%s %+v: spec %d and its twin %d disagree on failing", p, opts, i, s.twin)
						}
						continue
					}
					if d := treeDiff(a.Prog, b.Prog); d != "" {
						t.Fatalf("%s mode %d, %d constraints: twin %s differs from %s: %s", p, opts.Mode, len(opts.Constraints), b.Desc, a.Desc, d)
					}
					if fmt.Sprint(a.Divisor, a.Shrink, a.External) != fmt.Sprint(b.Divisor, b.Shrink, b.External) {
						t.Fatalf("%s mode %d: twin %s count metadata differs from %s", p, opts.Mode, b.Desc, a.Desc)
					}
					pairs++
					if a.Decomposition.CutMask == b.Decomposition.CutMask {
						plrPairs++
					}
					if len(opts.Constraints) > 0 {
						constrained++
					}
					if pairs%20 != 0 {
						continue
					}
					a, b = generated(t, specs[s.twin]), generated(t, s)
					ast.Optimize(a.Prog)
					ast.Optimize(b.Prog)
					if pa, pb := ast.Print(a.Prog), ast.Print(b.Prog); pa != pb {
						t.Fatalf("%s mode %d: optimized twin %s prints differently from %s\n%s\nvs\n%s", p, opts.Mode, b.Desc, a.Desc, pb, pa)
					}
					for _, m := range models {
						ra, aa := rankedCost(m, a)
						rb, ab := rankedCost(m, b)
						if ra != rb || aa != ab {
							t.Fatalf("%s mode %d, %s: twin %s costs %v/%v, counterpart %s %v/%v", p, opts.Mode, m.Name(), b.Desc, rb, ab, a.Desc, ra, aa)
						}
					}
					costed++
				}
			}
		}
	}
	if costed == 0 || plrPairs == 0 || plrPairs == pairs || constrained == 0 {
		t.Fatalf("%d twin pairs (%d within one cut, %d constrained), %d costed: a kind of twin is missing", pairs, plrPairs, constrained, costed)
	}
	t.Logf("%d twin pairs (%d PLR twins within one cut, %d constrained), %d optimized and costed", pairs, plrPairs, constrained, costed)
}

// TestTwinSignatureSeesLabels: the 4-cycle's two cuts are twins, but
// once the cuts carry different labels they generate different
// programs, so the signature must tell them apart. PLR specs may still
// be twins of specs of their own cut.
func TestTwinSignatureSeesLabels(t *testing.T) {
	plain := pattern.Cycle(4)
	labeled := plain.Clone()
	for v := 0; v < 4; v++ {
		labeled.SetLabel(v, uint32(1+v%2))
	}
	cutOf := func(s candidateSpec) uint32 { return generated(t, s).Decomposition.CutMask }
	for _, mode := range []Mode{ModeCount, ModeEmit} {
		opts := SearchOptions{Mode: mode, DisableDirect: true}
		ps, ls := candidateGenerators(plain, opts), candidateGenerators(labeled, opts)
		if len(ps) != len(ls) {
			t.Fatalf("mode %d: %d specs unlabeled, %d labeled", mode, len(ps), len(ls))
		}
		twinCuts := 0
		for i, s := range ps {
			if s.twin >= 0 && cutOf(ps[s.twin]) != cutOf(s) {
				twinCuts++
				a, b := generated(t, ls[s.twin]), generated(t, ls[i])
				if ast.Print(a.Prog) == ast.Print(b.Prog) {
					t.Fatalf("mode %d: labeled cuts %s and %s generate the same program", mode, a.Desc, b.Desc)
				}
			}
			if l := ls[i]; l.twin >= 0 && cutOf(ls[l.twin]) != cutOf(l) {
				t.Fatalf("mode %d: labeled spec %d is a twin of %d, a spec of another cut", mode, i, l.twin)
			}
		}
		if twinCuts == 0 {
			t.Fatalf("mode %d: the unlabeled 4-cycle has no twin cuts", mode)
		}
	}
}

// TestPLRTwinClassesPrintOneProgram: K(2,4) cut at its four-vertex side
// has an edgeless cut, so every PLR prefix is symmetric and a PLR
// spec's program depends only on its depth, its continuation and its
// prefix set. Every twin class of cut orders × depths prints one
// optimized program, in both modes, and there are 1 + 4 + 12 classes
// per subpattern-order variant for depths 4, 3 and 2.
func TestPLRTwinClassesPrintOneProgram(t *testing.T) {
	p := pattern.MustParse("0-2,0-3,0-4,0-5,1-2,1-3,1-4,1-5")
	d, err := decomp.Decompose(p, 0b111100)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeCount, ModeEmit} {
		specs, twin := decompSpecs(d, SearchOptions{Mode: mode})
		printed := map[int]string{} // first occurrence -> its program
		classes := map[int]int{}    // PLR depth -> classes
		for i, spec := range specs {
			f := i
			if twin[i] >= 0 {
				f = twin[i]
			}
			if spec.PLRDepth > 0 && twin[i] >= 0 && specs[f].PLRDepth != spec.PLRDepth {
				t.Fatalf("mode %d: spec %d at depth %d is a twin of depth %d", mode, i, spec.PLRDepth, specs[f].PLRDepth)
			}
			plan, err := GenerateDecomposed(spec)
			if err != nil {
				t.Fatal(err)
			}
			ast.Optimize(plan.Prog)
			got := ast.Print(plan.Prog)
			want, ok := printed[f]
			if !ok {
				printed[f] = got
				classes[spec.PLRDepth]++
				continue
			}
			if got != want {
				t.Fatalf("mode %d: %s prints differently from its twin, cut order %v", mode, plan.Desc, specs[f].CutOrder)
			}
		}
		variants := classes[0] / 24
		for depth, want := range map[int]int{2: 12, 3: 4, 4: 1} {
			if classes[depth] != want*variants {
				t.Errorf("mode %d: %d twin classes at PLR depth %d, want %d", mode, classes[depth], depth, want*variants)
			}
		}
	}
}

// FuzzPLRTwins draws a pattern of 3–6 vertices (edges, optional
// labels), a cutting set, a cut order, a PLR depth and a prefix
// automorphism τ, and requires the cut order with its prefix permuted
// by τ — same depth, prefix set, prefix graph and continuation, a PLR
// twin — to print the same optimized program and cost the same under
// all three models, in both modes. When the prefix has no nontrivial
// automorphism, PLR is a no-op and the depth-0 spec is the twin.
func FuzzPLRTwins(f *testing.F) {
	models := rankModels(graph.GNP(120, 0.06, 23))
	// k = 3 + n%4; edge bits run over the pairs (0,1), (0,2), ..., (k-2,k-1).
	f.Add(uint8(3), uint16(0b111111110), uint8(0), uint8(0b111100), int64(5), false)   // K(2,4), edgeless 4-cut
	f.Add(uint8(1), uint16(0b111110), uint8(0b0011), uint8(0b1100), int64(2), true)    // labeled diamond, cut {2,3}
	f.Add(uint8(2), uint16(0b1010110011), uint8(0), uint8(0b00110), int64(3), false)   // 5 vertices, cut {1,2}
	f.Add(uint8(3), uint16(0x7ffe), uint8(0b101010), uint8(0b111100), int64(4), false) // labeled K6−e, 4-cut
	f.Fuzz(func(t *testing.T, n uint8, edges uint16, labels, cutMask uint8, seed int64, emit bool) {
		k := 3 + int(n%4)
		p := pattern.New(k)
		bit := 0
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if edges&(1<<uint(bit)) != 0 {
					p.AddEdge(a, b)
				}
				bit++
			}
		}
		if labels != 0 {
			for v := 0; v < k; v++ {
				p.SetLabel(v, uint32(labels>>uint(v)&1))
			}
		}
		cut := uint32(cutMask) & (1<<uint(k) - 1)
		if !p.Connected() || cut == 0 || len(p.ComponentsAvoiding(cut)) < 2 {
			return
		}
		d, err := decomp.Decompose(p, cut)
		if err != nil {
			t.Fatal(err)
		}
		nCut := len(d.CutVerts)
		if nCut < 2 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		a := DefaultOrders(d)
		for _, o := range a.SubOrders {
			r.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		}
		if emit {
			a.Mode = ModeEmit
		}
		a.CutOrder = r.Perm(nCut)
		a.PLRDepth = 2 + r.Intn(nCut-1)
		b := a
		auts := d.CutPattern().InducedSub(a.CutOrder[:a.PLRDepth]).Automorphisms()
		if len(auts) == 1 {
			b.PLRDepth = 0
		} else {
			tau := auts[r.Intn(len(auts))]
			b.CutOrder = slices.Clone(a.CutOrder)
			for j, tj := range tau {
				b.CutOrder[j] = a.CutOrder[tj]
			}
		}
		var plans [2]*Plan
		for i, spec := range [2]DecompSpec{a, b} {
			if plans[i], err = GenerateDecomposed(spec); err != nil {
				t.Fatal(err)
			}
			ast.Optimize(plans[i].Prog)
		}
		pa, pb := plans[0], plans[1]
		if x, y := ast.Print(pa.Prog), ast.Print(pb.Prog); x != y {
			t.Fatalf("%s: %s and its twin %s print differently\n%s\nvs\n%s", p, pa.Desc, pb.Desc, x, y)
		}
		for _, m := range models {
			ra, aa := rankedCost(m, pa)
			rb, ab := rankedCost(m, pb)
			if ra != rb || aa != ab {
				t.Fatalf("%s, %s: %s costs %v/%v, its twin %s %v/%v", p, m.Name(), pa.Desc, ra, aa, pb.Desc, rb, ab)
			}
		}
	})
}

// referenceBest ranks p's candidates the way Search did before twin
// skipping and the arbitration bound: every spec generated, optimized,
// costed and arbitrated, the first MaxCandidates kept in spec order,
// and the first of equal costs winning. bounded counts the candidates
// whose cost.RankFloor exceeds the cheapest model cost, which Search
// leaves unarbitrated; moved reports whether arbitration changed the
// winner from the cheapest model cost's.
func referenceBest(t *testing.T, p *pattern.Pattern, opts SearchOptions) (best Candidate, bounded int, moved bool) {
	t.Helper()
	maxCand := opts.MaxCandidates
	if maxCand == 0 {
		maxCand = 600
	}
	var cands []Candidate
	var raws []float64
	for _, s := range candidateGenerators(p, opts) {
		if len(cands) == maxCand {
			break
		}
		plan, err := s.gen(nil)
		if err != nil {
			continue
		}
		ast.Optimize(plan.Prog)
		raw, adjusted := rankedCost(opts.Model, plan)
		cands = append(cands, Candidate{Plan: plan, Cost: adjusted})
		raws = append(raws, raw)
	}
	bi, m := 0, slices.Min(raws)
	for i, c := range cands {
		if c.Cost < cands[bi].Cost {
			bi = i
		}
		if cost.RankFloor(raws[i]) > m {
			bounded++
		}
	}
	return cands[bi], bounded, raws[bi] != m
}

// TestSearchWinnerMatchesFullArbitration: skipping twin specs and
// arbitrating only the candidates that can still win ranks first
// exactly the plan and cost that arbitrating every spec picks, for
// every 5-vertex motif and a stride of the 6-vertex ones under all
// three models, and returns that plan through the cut-symmetry winner
// step at the same cost. The graph is clustered, so auxiliary tables
// move some winners.
func TestSearchWinnerMatchesFullArbitration(t *testing.T) {
	g := graph.Community(200, 4, 12, 5)
	pats := pattern.ConnectedPatterns(5)
	six := pattern.ConnectedPatterns(6)
	for i := 3; i < len(six); i += 14 {
		pats = append(pats, six[i])
	}
	bounded, moved := 0, 0
	for _, m := range rankModels(g) {
		for i, p := range pats {
			opts := SearchOptions{Model: m, Mode: ModeCount, Workers: 2}
			if i%4 == 0 {
				opts.MaxCandidates = 30
			}
			best, all, err := Search(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, n, mv := referenceBest(t, p, opts)
			bounded += n
			if mv {
				moved++
			}
			if ranked := all[0]; ranked.Cost != want.Cost || ranked.Plan.Desc != want.Plan.Desc || ast.Print(ranked.Plan.Prog) != ast.Print(want.Plan.Prog) {
				t.Errorf("%s, %s: Search ranked %s at %v first, full arbitration %s at %v", p, m.Name(), ranked.Plan.Desc, ranked.Cost, want.Plan.Desc, want.Cost)
			}
			sym := cutSymmetric(want.Plan, m, nil)
			if best.Cost != want.Cost || best.Plan.Desc != sym.Desc || ast.Print(best.Plan.Prog) != ast.Print(sym.Prog) {
				t.Errorf("%s, %s: Search picked %s at %v, full arbitration %s at %v", p, m.Name(), best.Plan.Desc, best.Cost, sym.Desc, want.Cost)
			}
		}
	}
	if bounded == 0 || moved == 0 {
		t.Fatalf("%d candidates left unarbitrated, %d winners moved by arbitration: the test exercises neither", bounded, moved)
	}
	t.Logf("%d candidates left unarbitrated by the bound, %d winners moved by arbitration", bounded, moved)
}

func TestPlanPseudocodeShape(t *testing.T) {
	d, err := decomp.Decompose(pattern.Cycle(4), 1<<0|1<<2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := GenerateDecomposed(DefaultOrders(d))
	if err != nil {
		t.Fatal(err)
	}
	ast.Optimize(plan.Prog)
	code := PlanPseudocode(plan)
	// Algorithm 1 shape: accumulator reset, product, negative correction.
	for _, frag := range []string{"for v0", ":= 0", "g0 +=", "-1*"} {
		if !strings.Contains(code, frag) {
			t.Errorf("pseudocode missing %q:\n%s", frag, code)
		}
	}
}

func TestMatchingOrdersRespectsCap(t *testing.T) {
	p := pattern.Clique(5) // 5! = 120 connected orders
	if got := len(matchingOrders(p, 10)); got > 10 {
		t.Fatalf("cap ignored: %d", got)
	}
}

func TestExtensionOrdersGreedyDiffers(t *testing.T) {
	// A subpattern where the greedy (most-constrained-first) order
	// differs from identity: cut of 1 vertex, extensions with unequal
	// cut-degrees.
	pat := pattern.MustParse("0-2,1-2,0-1") // triangle; treat vertex 0 as cut
	orders := extensionOrders(pat, 1, 2)
	if len(orders) == 0 {
		t.Fatal("no orders")
	}
	for _, o := range orders {
		if len(o) != 2 {
			t.Fatalf("order %v wrong length", o)
		}
	}
}

func TestSearchModelRequired(t *testing.T) {
	if _, _, err := Search(pattern.Clique(3), SearchOptions{}); err == nil {
		t.Fatal("search without model accepted")
	}
}

func TestSearchRejectsDisconnected(t *testing.T) {
	g := graph.GNP(20, 0.2, 99)
	model := cost.NewLocality(cost.StatsOf(g), 0.25)
	if _, _, err := Search(pattern.MustParse("0-1,2-3"), SearchOptions{Model: model}); err == nil {
		t.Fatal("disconnected pattern accepted")
	}
}

// TestRecycledProgramsMatchFresh: a program built from a recycler's
// nodes, released by the program before it, prints and costs the same
// as one built from fresh nodes, for every candidate spec of every
// 5-vertex motif in count and emit mode.
func TestRecycledProgramsMatchFresh(t *testing.T) {
	model := searchModel(graph.GNP(80, 0.08, 3))
	rec := new(ast.Recycler)
	programs := 0
	for _, p := range pattern.ConnectedPatterns(5) {
		for _, mode := range []Mode{ModeCount, ModeEmit} {
			for _, s := range candidateGenerators(p, SearchOptions{Mode: mode}) {
				if s.twin >= 0 {
					continue
				}
				fresh, _, err := buildPlan(s, model, nil)
				if err != nil {
					continue
				}
				recycled, _, err := buildPlan(s, model, rec)
				if err != nil {
					t.Fatal(err)
				}
				if d := treeDiff(fresh.Prog, recycled.Prog); d != "" {
					t.Fatalf("%s %s: recycled program differs: %s", p, fresh.Desc, d)
				}
				if a, b := model.Cost(fresh.Prog), model.Cost(recycled.Prog); a != b {
					t.Fatalf("%s %s: recycled program costs %v, fresh %v", p, fresh.Desc, b, a)
				}
				rec.Release(recycled.Prog)
				programs++
			}
		}
	}
	if programs == 0 {
		t.Fatal("no programs built")
	}
}
