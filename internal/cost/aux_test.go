package cost

import (
	"math"
	"testing"

	"decomine/internal/ast"
)

// clique5Walk mirrors the canonical aux shape (see ast/aux_test.go):
// two pruned sets re-intersected with neighbor lists two loop levels
// below their definitions.
func clique5Walk() *ast.Program {
	b := ast.NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	s1 := b.Neighbors(v0)
	v1 := b.BeginLoop(s1, nil)
	s2 := b.Neighbors(v1)
	s3 := b.Intersect(s1, s2)
	v2 := b.BeginLoop(s3, nil)
	s4 := b.Neighbors(v2)
	s5 := b.Intersect(s3, s4)
	v3 := b.BeginLoop(s5, nil)
	s6 := b.Neighbors(v3)
	x := b.Size(b.Intersect(s5, s6))
	g := b.NewGlobal()
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	return b.Finish()
}

func clusteredStats() GraphStats {
	// A community-graph profile: moderate degree, extreme clustering —
	// deep pruned sets stay large, so rebuilding row intersections at
	// depth dwarfs one shallow build.
	return GraphStats{N: 1000, AvgDeg: 60, Labels: 1, Closure: 0.6, DeepClosure: 0.8}
}

// arbiterFor lowers prog through the arbiter and returns it with the
// recorded candidates (captured by wrapping Decide).
func arbiterFor(t *testing.T, st GraphStats, prog *ast.Program) (*AuxArbiter, *ast.Lowered, []*ast.AuxCandidate) {
	t.Helper()
	arb := AuxDecider(NewLocality(st, 0.25), prog)
	if arb == nil {
		t.Fatal("locality model must expose an estimator to the arbiter")
	}
	var cands []*ast.AuxCandidate
	l := ast.LowerWith(prog, ast.LowerOpts{AuxDecide: func(c *ast.AuxCandidate) ast.AuxVerdict {
		cp := *c
		cands = append(cands, &cp)
		return arb.Decide(c)
	}})
	return arb, l, cands
}

// TestAuxArbiterMaterializesOnClusteredStats: on clustered stats the
// closure floor keeps deep rows large, the amortization favors
// materializing, and every verdict carries both cost estimates.
func TestAuxArbiterMaterializesOnClusteredStats(t *testing.T) {
	_, l, cands := arbiterFor(t, clusteredStats(), clique5Walk())
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	if len(l.Aux) == 0 {
		t.Fatalf("clustered stats materialized no tables; decisions: %+v", l.AuxDecisions)
	}
	for _, d := range l.AuxDecisions {
		if d.MaterializeCost <= 0 || d.RecomputeCost <= 0 {
			t.Errorf("verdict missing cost estimates: %+v", d)
		}
		if d.Applied && d.MaterializeCost >= d.RecomputeCost {
			t.Errorf("applied table with materialize %v >= recompute %v", d.MaterializeCost, d.RecomputeCost)
		}
	}
}

// TestAuxArbiterRejectsDeepBuilds: a candidate whose source is defined
// at depth 3+ is rejected outright regardless of the estimates — deep
// rebuilds amortize only within a single deep iteration's subtree.
func TestAuxArbiterRejectsDeepBuilds(t *testing.T) {
	arb, _, cands := arbiterFor(t, clusteredStats(), clique5Walk())
	var shallow *ast.AuxCandidate
	for _, c := range cands {
		if c.SrcDepth <= 2 {
			shallow = c
		}
	}
	if shallow == nil {
		t.Fatal("no shallow candidate on the clique-5 walk")
	}
	if v := arb.Decide(shallow); !v.Materialize {
		t.Fatalf("shallow candidate rejected on clustered stats: %+v", v)
	}
	deep := *shallow
	deep.SrcDepth = 3
	if v := arb.Decide(&deep); v.Materialize || v.MaterializeCost != 0 || v.RecomputeCost != 0 {
		t.Fatalf("depth-3 build not rejected outright: %+v", v)
	}
}

// TestAuxRankAdjust pins the scale-free discount: savings are folded in
// as a fraction of the arbiter's own whole-plan cost — never subtracted
// from the model cost, whose units differ — keyed on the recorded cost
// verdict.
func TestAuxRankAdjust(t *testing.T) {
	prog := clique5Walk()
	arb := AuxDecider(NewLocality(clusteredStats(), 0.25), prog)

	const modelCost = 1e12 // deliberately on a different scale
	saving := []ast.AuxDecision{{Applied: true, MaterializeCost: 10, RecomputeCost: 400}}
	adj := arb.RankAdjust(modelCost, saving)
	if !(adj < modelCost) {
		t.Fatalf("net savings did not discount the cost: %v >= %v", adj, modelCost)
	}
	total := arb.shape().cost
	want := modelCost * (1 - math.Min(390/total, 0.9))
	if adj != want {
		t.Fatalf("discount = %v, want scale-free %v (plan total %v)", adj, want, total)
	}

	// No net savings → untouched; savings can never flip the sign or
	// exceed the 90% cap however large the verdict claims to be.
	losing := []ast.AuxDecision{{MaterializeCost: 400, RecomputeCost: 10}}
	if got := arb.RankAdjust(modelCost, losing); got != modelCost {
		t.Fatalf("losing verdict moved the cost: %v", got)
	}
	if got := arb.RankAdjust(modelCost, nil); got != modelCost {
		t.Fatalf("no verdicts moved the cost: %v", got)
	}
	huge := []ast.AuxDecision{{MaterializeCost: 1, RecomputeCost: 1e30}}
	frac := 0.9 // forced through float64: constant 1-0.9 would fold exactly
	if got, cap := arb.RankAdjust(modelCost, huge), modelCost*(1-frac); got != cap {
		t.Fatalf("discount cap: %v, want %v", got, cap)
	}
}

// TestAuxDeciderNilWithoutEstimator: models that cannot expose an
// estimator get no arbiter, so the pass materializes no table.
func TestAuxDeciderNilWithoutEstimator(t *testing.T) {
	var m Model = modelWithoutEstimator{}
	if arb := AuxDecider(m, clique5Walk()); arb != nil {
		t.Fatal("estimator-less model produced an arbiter")
	}
}

type modelWithoutEstimator struct{}

func (modelWithoutEstimator) Name() string              { return "stub" }
func (modelWithoutEstimator) Cost(*ast.Program) float64 { return 1 }

// TestRankAdjustFloor: whatever the verdicts claim, RankAdjust never
// goes below RankFloor — (1 − MaxAuxDiscount) of the model cost — and
// reaches it once the savings dwarf the plan total. core.Search skips
// arbitrating every candidate whose floor exceeds the cheapest model
// cost, so a cost below the floor would let a skipped candidate win.
func TestRankAdjustFloor(t *testing.T) {
	prog := clique5Walk()
	for _, m := range []Model{NewAutoMine(clusteredStats()), NewLocality(clusteredStats(), 0.25)} {
		arb := AuxDecider(m, prog)
		for _, modelCost := range []float64{1, 3.7, 1e12, math.MaxFloat64 / 2} {
			floor := RankFloor(modelCost)
			if want := modelCost * (1 - MaxAuxDiscount); floor > want*1.0000001 || floor < want*0.9999999 {
				t.Fatalf("%s: RankFloor(%v) = %v, want about %v", m.Name(), modelCost, floor, want)
			}
			for _, saved := range []float64{0, 1, 1e3, 1e9, 1e30, math.MaxFloat64} {
				ds := []ast.AuxDecision{{MaterializeCost: 1, RecomputeCost: 1 + saved}}
				got := arb.RankAdjust(modelCost, ds)
				if got < floor {
					t.Fatalf("%s: RankAdjust(%v, saved %v) = %v, below the floor %v", m.Name(), modelCost, saved, got, floor)
				}
				if saved >= 1e30 && got != floor {
					t.Fatalf("%s: RankAdjust(%v, saved %v) = %v, want the floor %v", m.Name(), modelCost, saved, got, floor)
				}
			}
		}
	}
}
