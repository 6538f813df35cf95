package decomine

// Benchmark harness: one testing.B benchmark per paper table and figure
// (sized for CI; cmd/expbench regenerates the full rows). Benchmarks use
// the small dense ee-like dataset unless the experiment's point requires
// otherwise, and pre-warm the profiling table and plan cache so the
// steady-state per-iteration number is the mining time itself.

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"decomine/internal/ast"
	"decomine/internal/baseline"
	"decomine/internal/core"
	"decomine/internal/cost"
	"decomine/internal/engine"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

// skipLong marks the handful of paper-table benchmarks whose single
// iteration runs for minutes; CI's bench smoke passes -short and gets
// everything else at -benchtime=1x.
func skipLong(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("multi-minute paper-table benchmark; skipped in -short bench smoke")
	}
}

func benchSystem(b *testing.B, dataset string, opts Options) *System {
	b.Helper()
	g, err := Dataset(dataset)
	if err != nil {
		b.Fatal(err)
	}
	if opts.ProfileSampleEdges == 0 {
		opts.ProfileSampleEdges = 50_000
	}
	if opts.ProfileTrials == 0 {
		opts.ProfileTrials = 10_000
	}
	s := NewSystem(g, opts)
	s.Model() // profiling outside the timed region
	return s
}

// --- Figure 1: decomposition advantage grows with pattern size ---

func BenchmarkFig1_DecoMine4Motif_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{})
	warm(b, func() error { _, err := s.MotifCounts(4); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_NoDecomp4Motif_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{DisableDecomposition: true, CostModel: CostLocality})
	warm(b, func() error { _, err := s.MotifCounts(4); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_DecoMine6Cycle_ee(b *testing.B) {
	skipLong(b)
	s := benchSystem(b, "ee", Options{})
	warm(b, func() error { _, err := s.CycleCount(6); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.CycleCount(6); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: in-house AutoMine sanity ---

func BenchmarkTable2_AutoMine3Motif_wk(b *testing.B) {
	s := benchSystem(b, "wk", Options{DisableDecomposition: true, DisableCountLastLoop: true, CostModel: CostLocality})
	warm(b, func() error { _, err := s.MotifCounts(3); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: DecoMine vs AutoMine vs oblivious ---

func BenchmarkTable3_DecoMine5Motif_cs(b *testing.B) {
	s := benchSystem(b, "cs", Options{})
	warm(b, func() error { _, err := s.MotifCounts(5); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_AutoMine5Motif_cs(b *testing.B) {
	s := benchSystem(b, "cs", Options{DisableDecomposition: true, DisableCountLastLoop: true, CostModel: CostLocality})
	warm(b, func() error { _, err := s.MotifCounts(5); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_Oblivious4Motif_cs(b *testing.B) {
	g := graph.MustDataset("cs")
	for i := 0; i < b.N; i++ {
		baseline.ObliviousMotifCensus(g, 4)
	}
}

func BenchmarkTable3_DecoMineFSM300_cs(b *testing.B) {
	s := benchSystem(b, "cs", Options{})
	warm(b, func() error { _, err := s.FSM(300, 3); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.FSM(300, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 4: vs the Peregrine-class baseline ---

func BenchmarkTable4_DecoMine3Motif_mc(b *testing.B) {
	s := benchSystem(b, "mc", Options{})
	warm(b, func() error { _, err := s.MotifCounts(3); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_PatternAware3Motif_mc(b *testing.B) {
	s := benchSystem(b, "mc", Options{DisableDecomposition: true, DisableCountLastLoop: true, CostModel: CostLocality})
	warm(b, func() error { _, err := s.MotifCounts(3); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: vs the native formula counter ---

func BenchmarkTable5_Native4Motif_ee(b *testing.B) {
	g := graph.MustDataset("ee")
	for i := 0; i < b.N; i++ {
		baseline.CountNative4Motifs(g)
	}
}

func BenchmarkTable5_DecoMine4Motif1T_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{Threads: 1})
	warm(b, func() error { _, err := s.MotifCounts(4); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5_GraphPi4Motif1T_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{Threads: 1, DisableDecomposition: true, CostModel: CostLocality})
	warm(b, func() error { _, err := s.MotifCounts(4); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 6: large-graph capacity (scaled) ---

func BenchmarkTable6_DecoMine3Motif_lj(b *testing.B) {
	s := benchSystem(b, "lj", Options{})
	warm(b, func() error { _, err := s.MotifCounts(3); return err })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 7: large patterns ---

func BenchmarkTable7_DecoMine7Cycle_ee(b *testing.B) {
	skipLong(b)
	s := benchSystem(b, "ee", Options{})
	warm(b, func() error { _, err := s.CycleCount(7); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.CycleCount(7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7_PatternAware6Cycle_ee(b *testing.B) {
	skipLong(b)
	s := benchSystem(b, "ee", Options{DisableDecomposition: true, CostModel: CostLocality})
	warm(b, func() error { _, err := s.CycleCount(6); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.CycleCount(6); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 11: cost models ---

// BenchmarkFig11_CostModelEvaluation measures the cost of *costing* a
// candidate plan under the three models (the compiler's inner loop).
func BenchmarkFig11_CostModelEvaluation(b *testing.B) {
	g := graph.MustDataset("ee")
	st := cost.StatsOf(g)
	profile := sampling.BuildProfile(g, sampling.Options{SampleEdges: 20_000, Trials: 5_000, Seed: 1})
	models := []cost.Model{
		cost.NewAutoMine(st),
		cost.NewLocality(st, 0.25),
		cost.NewApproxMining(st, profile),
	}
	r := rand.New(rand.NewSource(3))
	plan, err := core.RandomSpec(pattern.House(), core.ModeCount, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			m.Cost(plan.Prog)
		}
	}
}

// BenchmarkFig11_AMSelectedPlan_ee executes the plan the
// approximate-mining model picks for p1 (the end-to-end side of 11c).
func BenchmarkFig11_AMSelectedPlan_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{})
	p, _ := PatternByName("p1")
	warm(b, func() error { _, err := s.GetPatternCount(p); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.GetPatternCount(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 14: vs GraphPi with counting optimization ---

func BenchmarkFig14_GraphPiCount4Motif_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{DisableDecomposition: true, CostModel: CostLocality})
	warm(b, func() error { _, err := s.MotifCounts(4); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 15: PLR on/off ---

func benchPLRPlan(b *testing.B, disablePLR bool) {
	b.Helper()
	g := graph.MustDataset("ee")
	st := cost.StatsOf(g)
	profile := sampling.BuildProfile(g, sampling.Options{SampleEdges: 20_000, Trials: 5_000, Seed: 2})
	model := cost.NewApproxMining(st, profile)
	p := pattern.ConnectedPatterns(5)[2]
	best, _, err := core.Search(p, core.SearchOptions{
		Model: model, Mode: core.ModeCount, DisableDirect: true, DisablePLR: disablePLR,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, best.Plan.Prog, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15_PLROff(b *testing.B) { benchPLRPlan(b, true) }
func BenchmarkFig15_PLROn(b *testing.B)  { benchPLRPlan(b, false) }

// --- Figure 16: threads ---

func benchThreads(b *testing.B, threads int) {
	b.Helper()
	s := benchSystem(b, "ee", Options{Threads: threads})
	warm(b, func() error { _, err := s.MotifCounts(4); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_Threads1(b *testing.B) { benchThreads(b, 1) }
func BenchmarkFig16_Threads2(b *testing.B) { benchThreads(b, 2) }
func BenchmarkFig16_Threads4(b *testing.B) { benchThreads(b, 4) }

// --- Figure 17: FSM thresholds ---

func BenchmarkFig17_FSM1000_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{})
	warm(b, func() error { _, err := s.FSM(1000, 3); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.FSM(1000, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17_FSM100_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{})
	warm(b, func() error { _, err := s.FSM(100, 3); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.FSM(100, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 8.6: constrained query ---

func BenchmarkSec86_ConstrainedQuery_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{})
	p, _ := PatternByName("fig6")
	cons := []LabelConstraint{
		{Kind: AllDifferentLabels, Vertices: []int{0, 1, 2}},
		{Kind: AllSameLabel, Vertices: []int{1, 3, 4}},
	}
	warm(b, func() error { _, err := s.CountWithConstraints(p, cons); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.CountWithConstraints(p, cons); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 18: compilation cost ---

func BenchmarkFig18_Compile5MotifPlans(b *testing.B) {
	g := graph.MustDataset("wk")
	st := cost.StatsOf(g)
	model := cost.NewLocality(st, 0.25)
	pats := pattern.ConnectedPatterns(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pats {
			if _, _, err := core.Search(p, core.SearchOptions{Model: model, Mode: core.ModeCount}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 19: model-dependent plan selection ---

func BenchmarkFig19_SearchUnderThreeModels(b *testing.B) {
	g := graph.MustDataset("ee")
	st := cost.StatsOf(g)
	profile := sampling.BuildProfile(g, sampling.Options{SampleEdges: 20_000, Trials: 5_000, Seed: 4})
	models := []cost.Model{
		cost.NewAutoMine(st),
		cost.NewLocality(st, 0.25),
		cost.NewApproxMining(st, profile),
	}
	p := mustPattern("p1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			if _, _, err := core.Search(p.p, core.SearchOptions{Model: m, Mode: core.ModeCount}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func mustPattern(name string) *Pattern {
	p, err := PatternByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// --- bytecode VM ---

func BenchmarkVM_5Motif_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{CostModel: CostLocality})
	warm(b, func() error { _, err := s.MotifCounts(5); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.MotifCounts(5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineVM_Triangle_wk(b *testing.B) {
	g := graph.MustDataset("wk")
	st := cost.StatsOf(g)
	best, _, err := core.Search(pattern.Clique(3), core.SearchOptions{
		Model: cost.NewLocality(st, 0.25), Mode: core.ModeCount,
	})
	if err != nil {
		b.Fatal(err)
	}
	code := best.Plan.Lowered()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, best.Plan.Prog, engine.Options{Code: code}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine micro-benchmarks ---

func BenchmarkEngine_TriangleCount_wk(b *testing.B) {
	g := graph.MustDataset("wk")
	st := cost.StatsOf(g)
	best, _, err := core.Search(pattern.Clique(3), core.SearchOptions{
		Model: cost.NewLocality(st, 0.25), Mode: core.ModeCount,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, best.Plan.Prog, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_HashTableEpochClear(b *testing.B) {
	h := engine.NewHashTable(2)
	keys := make([][]uint32, 64)
	for i := range keys {
		keys[i] = []uint32{uint32(i), uint32(i * 3)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			h.Add(k, 1)
		}
		h.Clear() // O(1) epoch bump
	}
}

func BenchmarkOptimize_HousePlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan, err := core.GenerateDirect(core.DirectSpec{
			Pattern:       pattern.House(),
			Order:         []int{0, 1, 2, 3, 4},
			SymmetryBreak: true,
			CountLastLoop: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		ast.Optimize(plan.Prog)
	}
}

// warm runs fn once outside the timed region (plan search, caches).
func warm(b *testing.B, fn func() error) {
	b.Helper()
	if err := fn(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

var _ = atomic.Bool{}
var _ = time.Second

// --- cross-pattern reuse: one batch vs separate counts ---

func BenchmarkReuse_Batch4Motifs_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{})
	pats := MotifPatterns(4)
	warm(b, func() error { _, err := s.CountPatterns(pats, BatchOpts{}); return err })
	for i := 0; i < b.N; i++ {
		if _, err := s.CountPatterns(pats, BatchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReuse_Separate4Motifs_ee(b *testing.B) {
	s := benchSystem(b, "ee", Options{})
	pats := MotifPatterns(4)
	warm(b, func() error {
		for _, p := range pats {
			if _, err := s.GetPatternCount(p); err != nil {
				return err
			}
		}
		return nil
	})
	for i := 0; i < b.N; i++ {
		for _, p := range pats {
			if _, err := s.GetPatternCount(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- scheduler load balance on a skewed R-MAT ---

// BenchmarkSteal_RMAT_5Motif runs a 5-vertex motif count on a power-law
// R-MAT graph and reports the worst max/mean WorkPerThread imbalance
// observed (per-worker executed instructions). The work-stealing driver
// should hold this near 1.0.
func BenchmarkSteal_RMAT_5Motif(b *testing.B) {
	g := graph.RMATParams(11, 8, 0.7, 0.1, 0.1, 777)
	st := cost.StatsOf(g)
	best, _, err := core.Search(pattern.House(), core.SearchOptions{
		Model: cost.NewLocality(st, 0.25), Mode: core.ModeCount,
	})
	if err != nil {
		b.Fatal(err)
	}
	code := best.Plan.Lowered()
	const threads = 4
	pool := engine.NewPool(threads)
	defer pool.Close()
	opts := engine.Options{Threads: threads, Code: code, Pool: pool, Prepared: engine.Prepare(g, code)}
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(g, best.Plan.Prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		var total, max int64
		for _, w := range res.WorkPerThread {
			total += w
			if w > max {
				max = w
			}
		}
		if imb := float64(max) * threads / float64(total); imb > worst {
			worst = imb
		}
	}
	b.ReportMetric(worst, "max/mean-work")
}
