package core

import (
	"fmt"
	"math/rand"
	"reflect"
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
		if c.Plan.Kind != "direct" {
			t.Fatalf("decomposition candidate despite disable: %s", c.Plan.Desc)
		}
	}
	_ = best
	best2, all2, err := Search(p, SearchOptions{Model: searchModel(g), DisableDirect: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all2 {
		if c.Plan.Kind != "decomposed" {
			t.Fatalf("direct candidate despite disable: %s", c.Plan.Desc)
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
				descs[k] = append(descs[k], c.Plan.Desc)
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
// estimate is made inside the timed searches. Workers follow
// GOMAXPROCS, so -cpu 1,2 compares inline with parallel preparation.
// ns/candidate divides by the distinct plans ranked, ns/spec by every
// spec considered, twins included.
func BenchmarkSearchSixMotifs(b *testing.B) {
	g := graph.GNP(240, 0.025, 1)
	all := pattern.ConnectedPatterns(6)
	draw := rand.New(rand.NewSource(1))
	var pats []*pattern.Pattern
	for i := 0; i+4 <= len(all); i += 4 {
		pats = append(pats, all[i+draw.Intn(4)])
	}
	rand.New(rand.NewSource(1)).Shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
	b.ReportAllocs()
	cands, specs := 0, 0
	for i := 0; i < b.N; i++ {
		model := cost.NewApproxMining(cost.StatsOf(g), sampling.BuildProfile(g, sampling.Options{Seed: 1000}))
		for _, p := range pats {
			var stats SearchStats
			if _, _, err := Search(p, SearchOptions{Model: model, Mode: ModeCount, Stats: &stats}); err != nil {
				b.Fatal(err)
			}
			cands += stats.Candidates
			specs += stats.Candidates + stats.Twins
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cands), "ns/candidate")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(specs), "ns/spec")
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
	plan, err := s.gen()
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

// TestTwinCutsGenerateIdenticalPrograms: for every connected pattern of
// 3–6 vertices, in both modes, each spec Search skips as a twin
// generates the same program — every node, loop metadata and plan
// count metadata — as its first-occurrence counterpart. Every
// twentieth pair is also optimized, printed and costed under all three
// models, with and without the auxiliary-table rank adjustment.
func TestTwinCutsGenerateIdenticalPrograms(t *testing.T) {
	g := graph.GNP(120, 0.06, 23)
	models := rankModels(g)
	pairs, costed := 0, 0
	for k := 3; k <= 6; k++ {
		for _, p := range pattern.ConnectedPatterns(k) {
			for _, mode := range []Mode{ModeCount, ModeEmit} {
				specs := candidateGenerators(p, SearchOptions{Mode: mode, DisableDirect: true})
				first := map[int]*Plan{}
				for i, s := range specs {
					if s.twin < 0 {
						continue
					}
					if s.twin >= i || specs[s.twin].twin >= 0 {
						t.Fatalf("%s: spec %d names %d, which is not an earlier first occurrence", p, i, s.twin)
					}
					a := first[s.twin]
					if a == nil {
						a = generated(t, specs[s.twin])
						first[s.twin] = a
					}
					b := generated(t, s)
					if d := treeDiff(a.Prog, b.Prog); d != "" {
						t.Fatalf("%s mode %d: twin %s differs from %s: %s", p, mode, b.Desc, a.Desc, d)
					}
					if fmt.Sprint(a.Divisor, a.Shrink, a.External) != fmt.Sprint(b.Divisor, b.Shrink, b.External) {
						t.Fatalf("%s mode %d: twin %s count metadata differs from %s", p, mode, b.Desc, a.Desc)
					}
					pairs++
					if pairs%20 != 0 {
						continue
					}
					a, b = generated(t, specs[s.twin]), generated(t, s)
					ast.Optimize(a.Prog)
					ast.Optimize(b.Prog)
					if pa, pb := ast.Print(a.Prog), ast.Print(b.Prog); pa != pb {
						t.Fatalf("%s mode %d: optimized twin %s prints differently from %s\n%s\nvs\n%s", p, mode, b.Desc, a.Desc, pb, pa)
					}
					for _, m := range models {
						ra, aa := rankedCost(m, a)
						rb, ab := rankedCost(m, b)
						if ra != rb || aa != ab {
							t.Fatalf("%s mode %d, %s: twin %s costs %v/%v, counterpart %s %v/%v", p, mode, m.Name(), b.Desc, rb, ab, a.Desc, ra, aa)
						}
					}
					costed++
				}
			}
		}
	}
	if pairs == 0 || costed == 0 {
		t.Fatal("no twin specs among the 3–6-vertex patterns")
	}
	t.Logf("%d twin pairs, %d optimized and costed", pairs, costed)
}

// TestTwinSignatureSeesLabels: the 4-cycle's two cuts are twins, but
// once the cuts carry different labels they generate different
// programs, so the signature must tell them apart.
func TestTwinSignatureSeesLabels(t *testing.T) {
	plain := pattern.Cycle(4)
	labeled := plain.Clone()
	for v := 0; v < 4; v++ {
		labeled.SetLabel(v, uint32(1+v%2))
	}
	for _, mode := range []Mode{ModeCount, ModeEmit} {
		opts := SearchOptions{Mode: mode, DisableDirect: true}
		ps, ls := candidateGenerators(plain, opts), candidateGenerators(labeled, opts)
		if len(ps) != len(ls) {
			t.Fatalf("mode %d: %d specs unlabeled, %d labeled", mode, len(ps), len(ls))
		}
		twins := 0
		for i, s := range ps {
			if s.twin < 0 {
				continue
			}
			twins++
			if ls[i].twin >= 0 {
				t.Fatalf("mode %d: labeled spec %d is a twin of %d", mode, i, ls[i].twin)
			}
			a, b := generated(t, ls[s.twin]), generated(t, ls[i])
			if ast.Print(a.Prog) == ast.Print(b.Prog) {
				t.Fatalf("mode %d: labeled cuts %s and %s generate the same program", mode, a.Desc, b.Desc)
			}
		}
		if twins == 0 {
			t.Fatalf("mode %d: the unlabeled 4-cycle has no twin cuts", mode)
		}
	}
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
		plan, err := s.gen()
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
			sym := cutSymmetric(want.Plan, m)
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
