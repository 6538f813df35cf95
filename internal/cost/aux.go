package cost

// Materialize-vs-recompute arbitration for auxiliary graphs. The
// lowering pass (ast.materializeAux) finds candidate tables and asks a
// decision callback whether building aux[v] = N(v) ∩ C pays for itself;
// AuxDecider answers with the active cost model's estimator, so
// core.Search ranks aux and non-aux plans against each other instead of
// always choosing one. The estimate is the classic amortization:
//
//	materialize = builds · |C| · rowPass(deg, |C|)          (build work)
//	            + Σ_use execs · (pass(x, row) + lookup)     (pruned reads)
//	recompute   = Σ_use execs · pass(x, deg)                (status quo)
//
// where builds is the expected iteration count of the loop enclosing
// C's definition, execs the iteration count of the innermost loop
// containing each use site, x the non-neighbor operand's expected size,
// and row = |N(w) ∩ C| the expected pruned row length. Passes are
// priced per element with the same hub-bitmap blending the estimator
// uses everywhere else.
//
// Two scale subtleties. First, the amortization compares loop totals
// ACROSS depths — a shallow build loop against deep use loops — which
// sampled profiles get wrong on clustered graphs: a deep prefix only
// survives edge sampling when every one of its edges was kept, so
// profiled deep-loop counts collapse super-linearly while shallow ones
// do not. The arbiter therefore disables the profile loopCount override
// and takes its shape from the size chain, whose deep intersections are
// floored by the sampled closure statistics
// (GraphStats.Closure/DeepClosure). Second, those size-chain costs are
// in a different unit scale than a profile-backed Model.Cost, so the
// verdict's absolute costs must never be subtracted from a model cost
// directly; RankAdjust folds the savings in relatively, as a fraction
// of the same estimator run's whole-plan cost.

import (
	"math"
	"sync"

	"decomine/internal/ast"
)

// MaxAuxDiscount caps the share of a plan's cost RankAdjust may take
// off for materialized tables. core.Search relies on it: a candidate
// whose RankFloor exceeds the cheapest model cost cannot win, so it is
// never arbitrated.
const MaxAuxDiscount = 0.9

// RankFloor is the lowest cost RankAdjust can return for modelCost,
// computed with the same float64 operations.
func RankFloor(modelCost float64) float64 { return discount(modelCost, MaxAuxDiscount) }

// discount scales modelCost down by the fraction frac. A constant frac
// would fold 1−frac exactly; a float64 argument rounds it the way every
// RankAdjust call does.
func discount(modelCost, frac float64) float64 { return modelCost * (1 - frac) }

// auxEstimating is implemented by models that can expose their
// configured AST estimator for shape extraction.
type auxEstimating interface {
	estimator() *estimator
}

// AuxArbiter prices materialize-vs-recompute for one program's
// auxiliary-table candidates: Decide is the ast.LowerOpts.AuxDecide
// callback, RankAdjust folds the applied tables' estimated savings into
// the model's plan cost. The plan shape (register sizes, loop totals)
// is computed lazily on first use and shared across all of the
// program's candidate tables.
type AuxArbiter struct {
	ae   auxEstimating
	prog *ast.Program
	once sync.Once
	e    *estimator
}

// AuxDecider returns the arbiter wiring model m into the
// auxiliary-graph pass for prog, or nil when the model does not expose
// an estimator (the pass then materializes no table).
func AuxDecider(m Model, prog *ast.Program) *AuxArbiter {
	ae, ok := m.(auxEstimating)
	if !ok {
		return nil
	}
	return &AuxArbiter{ae: ae, prog: prog}
}

func (a *AuxArbiter) shape() *estimator {
	a.once.Do(func() {
		a.e = a.ae.estimator()
		// Cross-depth loop-total ratios must come from the closure-floored
		// size chain, not from sampled prefix counts (see the package
		// comment on profile deep-prefix collapse).
		a.e.loopCount = nil
		a.e.loopTotal = map[int]float64{}
		a.e.run(a.prog)
	})
	return a.e
}

// RankAdjust returns modelCost discounted by the materialized tables'
// estimated net savings, expressed as a fraction of the arbiter's own
// whole-plan cost so the adjustment is scale-free: the verdict costs
// and the plan total come from the same estimator run, and modelCost —
// whatever its units — is scaled, never subtracted from. Savings are
// keyed on the recorded cost verdict.
func (a *AuxArbiter) RankAdjust(modelCost float64, ds []ast.AuxDecision) float64 {
	var saved float64
	for _, d := range ds {
		if d.RecomputeCost > d.MaterializeCost {
			saved += d.RecomputeCost - d.MaterializeCost
		}
	}
	if saved <= 0 {
		return modelCost
	}
	total := a.shape().cost
	if total <= 0 {
		return modelCost
	}
	return discount(modelCost, math.Min(saved/total, MaxAuxDiscount))
}

// Decide answers one candidate with the amortized estimate.
func (a *AuxArbiter) Decide(c *ast.AuxCandidate) ast.AuxVerdict {
	e := a.shape()
	if int(c.Src) >= len(e.size) {
		return ast.AuxVerdict{}
	}
	// Deep builds are rejected outright: a table rebuilt at depth 3+
	// amortizes only across the subtree of a single deep iteration, so
	// the verdict rides entirely on the estimator's deepest — least
	// certain — loop totals, and a miss there turns every rebuild into
	// pure overhead. Shallow builds amortize across the whole search
	// below them and their build loops are sized from well-estimated
	// shallow sets.
	if c.SrcDepth > 2 {
		return ast.AuxVerdict{}
	}
	srcSz := e.size[c.Src]
	builds, ok := e.loopTotal[int(c.BuildLoopVar)]
	if !ok || srcSz <= 0 {
		return ast.AuxVerdict{}
	}
	deg := math.Max(e.st.AvgDeg, 1)
	p := e.st.HubProb
	// Expected pruned row length |N(v) ∩ C| under the model's own
	// intersection estimate, floored (like every intersection in the
	// estimator's walk) by the closure chain one constraint deeper
	// than the source set.
	rowSz := e.intersect(deg, srcSz, true, e.fromNbr[c.Src])
	if fl := math.Min(e.closureSize(e.chain[c.Src]+1), math.Min(deg, srcSz)); fl > rowSz {
		rowSz = fl
	}

	// One build intersects every source vertex's adjacency with the
	// source set; each row dispatch takes the bitmap filter when the
	// row's vertex is a hub.
	rowPass := p*math.Min(deg, srcSz) + (1-p)*(deg+srcSz)
	mat := builds * srcSz * rowPass
	var rec float64
	for _, u := range c.Uses {
		if int(u.OtherReg) >= len(e.size) {
			return ast.AuxVerdict{}
		}
		// The use runs once per iteration of its innermost enclosing
		// loop — deeper than w's own loop when the intersection (or
		// fused count) sits below the binding.
		execs, ok := e.loopTotal[int(u.EncLoopVar)]
		if !ok {
			execs, ok = e.loopTotal[int(u.LoopVar)]
		}
		if !ok {
			return ast.AuxVerdict{}
		}
		x := e.size[u.OtherReg]
		xNb := e.fromNbr[u.OtherReg]
		// Status quo: x against the raw adjacency row, either operand
		// possibly backed by a hub bitmap.
		pOld := hubPairProb(p, xNb, true)
		rec += execs * (pOld*math.Min(x, deg) + (1-pOld)*(x+deg))
		// Rewritten: x against the pruned row (a plain array — only
		// x's side can still carry a bitmap), plus the binary-search
		// row lookup.
		pNew := 0.0
		if xNb {
			pNew = p
		}
		mat += execs * (pNew*math.Min(x, rowSz) + (1-pNew)*(x+rowSz))
		mat += execs * math.Log2(math.Max(srcSz, 2))
	}
	return ast.AuxVerdict{
		Materialize:     mat < rec,
		MaterializeCost: mat,
		RecomputeCost:   rec,
	}
}

// hubPairProb is the probability at least one operand of an
// intersection carries a hub bitmap row, given which operands are
// neighbor-derived.
func hubPairProb(p float64, aNb, bNb bool) float64 {
	if p <= 0 {
		return 0
	}
	switch {
	case aNb && bNb:
		return 1 - (1-p)*(1-p)
	case aNb || bNb:
		return p
	}
	return 0
}
