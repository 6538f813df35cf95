package cost

import (
	"math"
	"testing"

	"decomine/internal/ast"
)

// referenceLocalityCost re-derives the locality model's estimate with
// the cost sites written out one by one, so the estimator's formulas
// can be pinned against an independent implementation rather than
// against themselves.
func referenceLocalityCost(st GraphStats, plocal float64, prog *ast.Program) float64 {
	e := referenceEstimator{st: st, plocal: plocal}
	e.size = make([]float64, prog.NumSets)
	e.fromNbr = make([]bool, prog.NumSets)
	e.adj = make([]bool, prog.NumSets)
	e.walk(prog.Root.Body, 1)
	return e.cost
}

type referenceEstimator struct {
	st      GraphStats
	plocal  float64
	size    []float64
	fromNbr []bool
	adj     []bool // defined by OpNeighbors
	cost    float64
}

func (e *referenceEstimator) walk(body []*ast.Node, iters float64) {
	for _, n := range body {
		switch n.Kind {
		case ast.KLoop:
			perIter := e.size[n.Over]
			if perIter < 0 {
				perIter = 0
			}
			total := iters * perIter
			e.cost += total
			e.walk(n.Body, math.Max(total, 1e-12))
		case ast.KSetDef:
			e.defineSet(n, iters)
		case ast.KScalarDef, ast.KScalarReset, ast.KScalarAccum, ast.KGlobalAdd:
			e.cost += iters
		case ast.KHashClear:
			e.cost += iters
		case ast.KHashInc, ast.KHashGet:
			e.cost += 2 * iters
		case ast.KEmit:
			e.cost += 2 * iters
		case ast.KCondPos:
			e.walk(n.Body, iters)
		}
	}
}

func (e *referenceEstimator) hubProbOf(a, b int) float64 {
	p := e.st.HubProb
	if p <= 0 {
		return 0
	}
	switch {
	case e.fromNbr[a] && e.fromNbr[b]:
		return 1 - (1-p)*(1-p)
	case e.fromNbr[a] || e.fromNbr[b]:
		return p
	}
	return 0
}

func (e *referenceEstimator) defineSet(n *ast.Node, iters float64) {
	var sz float64
	var nb bool
	switch n.Op {
	case ast.OpAll:
		sz, nb = e.st.N, false
	case ast.OpNeighbors:
		sz, nb = e.st.AvgDeg, true
		e.adj[n.Dst] = true
	case ast.OpIntersect:
		a, b := e.size[n.A], e.size[n.B]
		if e.fromNbr[n.A] && e.fromNbr[n.B] {
			sz = math.Min(a, b) * e.plocal
		} else {
			sz = a * b / math.Max(e.st.N, 1)
		}
		nb = e.fromNbr[n.A] || e.fromNbr[n.B]
		if p := e.hubProbOf(n.A, n.B); p > 0 {
			e.cost += iters * (p*math.Min(a, b) + (1-p)*(a+b))
		} else {
			e.cost += iters * (a + b)
		}
	case ast.OpSubtract:
		a, b := e.size[n.A], e.size[n.B]
		frac := 1 - b/math.Max(e.st.N, 1)
		if frac < 0.05 {
			frac = 0.05
		}
		sz, nb = a*frac, e.fromNbr[n.A]
		if e.fromNbr[n.B] && e.st.HubProb > 0 {
			p := e.st.HubProb
			e.cost += iters * (p*a + (1-p)*(a+b))
		} else {
			e.cost += iters * (a + b)
		}
	case ast.OpRemove:
		sz, nb = math.Max(e.size[n.A]-1, 0), e.fromNbr[n.A]
		e.cost += iters * e.size[n.A]
	case ast.OpTrimAbove, ast.OpTrimBelow:
		sz, nb = e.size[n.A]/2, e.fromNbr[n.A]
		e.cost += iters * math.Log2(math.Max(e.size[n.A], 2))
	case ast.OpCopy:
		sz, nb = e.size[n.A], e.fromNbr[n.A]
		e.cost += iters * e.size[n.A]
	case ast.OpFilterLabel, ast.OpFilterLabelOfVar:
		sz, nb = e.size[n.A]/e.st.Labels, e.fromNbr[n.A]
		if e.adj[n.A] {
			e.cost += iters * math.Log2(math.Max(e.st.Labels, 2))
		} else {
			e.cost += iters * e.size[n.A]
		}
	case ast.OpFilterLabelNotOfVar:
		sz, nb = e.size[n.A]*(1-1/e.st.Labels), e.fromNbr[n.A]
		e.cost += iters * e.size[n.A]
	}
	if sz < 0 {
		sz = 0
	}
	e.size[n.Dst] = sz
	e.fromNbr[n.Dst] = nb
}

// TestLocalityCostMatchesReference: the locality model must produce
// bit-for-bit the same float as the reference formulas, on hubbed and
// hubless stats.
func TestLocalityCostMatchesReference(t *testing.T) {
	for _, st := range []GraphStats{
		{N: 10000, AvgDeg: 20, Labels: 1},
		{N: 10000, AvgDeg: 20, Labels: 1, HubProb: 0.35},
		{N: 512, AvgDeg: 48, Labels: 3, HubProb: 0.8},
	} {
		m := NewLocality(st, 0.25)
		for k := 2; k <= 5; k++ {
			prog := buildNest(k)
			got := m.Cost(prog)
			want := referenceLocalityCost(st, 0.25, prog)
			if got != want {
				t.Fatalf("nest %d, stats %+v: model cost %v != reference %v (diff %g)",
					k, st, got, want, got-want)
			}
		}
	}
}
