// Package cost implements DecoMine's three cost models (paper §6): the
// AutoMine-style random-graph model, the locality-aware model, and the
// approximate-mining based model backed by a sampled pattern-count
// profile. A model assigns an estimated execution cost to a compiled AST;
// the algorithm search engine ranks candidate plans by this number, so
// only relative accuracy matters.
package cost

import (
	"math"

	"decomine/internal/ast"
	"decomine/internal/graph"
	"decomine/internal/obs"
	"decomine/internal/sampling"
	"decomine/internal/vset"
)

// Per-model evaluation counters: one increment per candidate plan
// costed, so the registry shows how much ranking work each search did
// and which model is live.
var (
	obsEvalAutoMine = obs.Default.Counter("cost.evals.automine")
	obsEvalLocality = obs.Default.Counter("cost.evals.locality")
	obsEvalApprox   = obs.Default.Counter("cost.evals.approx-mining")
)

// GraphStats summarizes the input graph for the analytic models.
type GraphStats struct {
	N      float64 // |V|
	AvgDeg float64 // 2|E|/|V|
	Labels float64 // number of distinct labels (1 if unlabeled)
	// HubProb is the fraction of adjacency covered by the graph's hub
	// bitmap index (hub degree sum / 2|E|), i.e. the degree-weighted
	// probability that a neighbor-set operand of an intersection has a
	// bitmap row and the VM takes an O(min) kernel instead of an
	// O(a+b) merge. Zero when the graph has no hub index.
	HubProb float64
	// Closure is the sampled edge-closure probability: for an edge
	// (u,v), the expected |N(u) ∩ N(v)| / min(deg u, deg v). DeepClosure
	// is the second-order variant — for C = N(u) ∩ N(v) and w ∈ C, the
	// expected |N(w) ∩ C| / |C|, i.e. the density an auxiliary row keeps
	// once its source set is already triangle-pruned. Both are near zero
	// on uniform random graphs (the independence assumption holds) and
	// approach one inside dense communities, where independence-based
	// deep-set estimates collapse to zero and would starve the
	// materialize-vs-recompute arbitration of its amortization term.
	Closure     float64
	DeepClosure float64
}

// P returns the uniform connection probability AvgDeg/N used by the
// AutoMine model.
func (s GraphStats) P() float64 {
	if s.N == 0 {
		return 0
	}
	return s.AvgDeg / s.N
}

// StatsOf derives GraphStats from a graph.
func StatsOf(g *graph.Graph) GraphStats {
	labels := float64(g.NumLabels())
	if labels < 1 {
		labels = 1
	}
	st := GraphStats{N: float64(g.NumVertices()), AvgDeg: g.AvgDegree(), Labels: labels}
	if ix := g.HubIndex(); ix != nil {
		if m2 := st.N * st.AvgDeg; m2 > 0 {
			st.HubProb = float64(ix.CoveredDegree()) / m2
		}
	}
	st.Closure, st.DeepClosure = sampleClosure(g)
	return st
}

// sampleClosure measures Closure and DeepClosure over a deterministic
// stride sample of edges (no RNG: the same graph always yields the same
// statistics, keeping plan choices reproducible). Cost is O(|E|) for
// the edge walk plus a few hundred set intersections.
func sampleClosure(g *graph.Graph) (closure, deep float64) {
	m := g.NumEdges()
	if m == 0 {
		return 0, 0
	}
	const maxSamples = 256
	stride := int(m/maxSamples) + 1
	var buf, row []uint32
	var n1, n2 int
	var s1, s2 float64
	i := 0
	g.Edges(func(u, v uint32) {
		i++
		if (i-1)%stride != 0 {
			return
		}
		nu, nv := g.Neighbors(u), g.Neighbors(v)
		if len(nu) == 0 || len(nv) == 0 {
			return
		}
		buf = vset.Intersect(buf[:0], nu, nv)
		n1++
		s1 += float64(len(buf)) / float64(min(len(nu), len(nv)))
		if len(buf) == 0 {
			return
		}
		// One representative row per sampled edge: the median common
		// neighbor's adjacency intersected back against the common set.
		w := buf[len(buf)/2]
		row = vset.Intersect(row[:0], g.Neighbors(w), buf)
		n2++
		s2 += float64(len(row)) / float64(len(buf))
	})
	if n1 > 0 {
		closure = s1 / float64(n1)
	}
	if n2 > 0 {
		deep = s2 / float64(n2)
	}
	return closure, deep
}

// Model estimates plan execution cost.
type Model interface {
	Name() string
	Cost(prog *ast.Program) float64
}

// ---- AutoMine random-graph model ----

type autoMine struct {
	st GraphStats
}

// NewAutoMine returns the baseline model: a random graph with n vertices
// where every pair is connected with fixed probability p (§6.1).
func NewAutoMine(st GraphStats) Model { return &autoMine{st: st} }

func (m *autoMine) Name() string { return "automine" }

func (m *autoMine) estimator() *estimator {
	return &estimator{st: m.st, intersect: func(a, b float64, _, _ bool) float64 {
		return a * b / math.Max(m.st.N, 1)
	}}
}

func (m *autoMine) Cost(prog *ast.Program) float64 {
	obsEvalAutoMine.Inc()
	return m.estimator().run(prog)
}

// ---- locality-aware model ----

type locality struct {
	st     GraphStats
	plocal float64
}

// NewLocality returns the locality-aware model: vertices within α hops
// connect with probability plocal >> p (§6.1). In connected patterns all
// bound vertices are within the α=8 default, so every neighbor-set
// intersection uses plocal.
func NewLocality(st GraphStats, plocal float64) Model {
	if plocal <= 0 {
		plocal = 0.25
	}
	return &locality{st: st, plocal: plocal}
}

func (m *locality) Name() string { return "locality" }

func (m *locality) estimator() *estimator {
	return &estimator{st: m.st, intersect: func(a, b float64, na, nb bool) float64 {
		if na && nb {
			return math.Min(a, b) * m.plocal
		}
		return a * b / math.Max(m.st.N, 1)
	}}
}

func (m *locality) Cost(prog *ast.Program) float64 {
	obsEvalLocality.Inc()
	return m.estimator().run(prog)
}

// ---- approximate-mining model ----

type approxMining struct {
	st      GraphStats
	profile *sampling.Profile
}

// NewApproxMining returns the approximate-mining based model (§6.2): the
// iteration count of a loop level is estimated by the profiled count of
// the pattern prefix reaching that level. Prefixes without profile
// entries (disconnected prefixes, oversized patterns) fall back to the
// locality model's branching estimate.
func NewApproxMining(st GraphStats, profile *sampling.Profile) Model {
	return &approxMining{st: st, profile: profile}
}

func (m *approxMining) Name() string { return "approx-mining" }

func (m *approxMining) estimator() *estimator {
	return &estimator{
		st: m.st,
		intersect: func(a, b float64, na, nb bool) float64 {
			if na && nb {
				return math.Min(a, b) * 0.25
			}
			return a * b / math.Max(m.st.N, 1)
		},
		loopCount: func(meta *ast.LoopMeta, parentCount float64) (float64, bool) {
			if meta == nil || meta.Prefix == nil {
				return 0, false
			}
			c, ok := m.profile.Count(meta.Prefix)
			if !ok {
				return 0, false
			}
			if meta.Trimmed {
				// Symmetry-breaking trims cut the surviving tuples by the
				// prefix automorphism factor; a factor-2 per trim is the
				// standard coarse correction.
				c /= 2
			}
			return math.Max(c, 1e-9), true
		},
	}
}

func (m *approxMining) Cost(prog *ast.Program) float64 {
	obsEvalApprox.Inc()
	return m.estimator().run(prog)
}

// ---- shared AST-walking estimator ----

// estimator walks a program accumulating expected work. For every set
// register it tracks an estimated cardinality and whether the set derives
// from neighbor lists (the locality signal); for every loop it tracks the
// expected total number of iterations across the whole execution. Every
// cost site is priced in one unit: a simple VM instruction, or one
// element of set-kernel work.
type estimator struct {
	st        GraphStats
	intersect func(a, b float64, aNb, bNb bool) float64
	// loopCount, when set and returning ok, overrides the expected TOTAL
	// number of iterations of a loop (absolute, profile units).
	loopCount func(meta *ast.LoopMeta, parentCount float64) (float64, bool)

	size    []float64
	fromNbr []bool
	// chain counts the adjacency constraints folded into each set
	// register (N(v) is 1, an intersection sums its operands): the
	// exponent of the closure-chain size floor that keeps deep
	// triangle-pruned sets from collapsing to zero on clustered graphs.
	chain []int
	// adj marks the registers defined by OpNeighbors: a label filter of
	// one is a lookup in the graph's label-grouped adjacency.
	adj  []bool
	cost float64

	// loopTotal, when non-nil, captures each loop's expected TOTAL
	// iteration count keyed by its loop variable (the plan shape
	// AuxDecider prices materialize-vs-recompute against).
	loopTotal map[int]float64
}

func (e *estimator) run(prog *ast.Program) float64 {
	e.size = make([]float64, prog.NumSets)
	e.fromNbr = make([]bool, prog.NumSets)
	e.chain = make([]int, prog.NumSets)
	e.adj = make([]bool, prog.NumSets)
	e.walk(prog.Root.Body, 1, 1)
	return e.cost
}

// closureSize is the clustered-graph floor for a set holding `chain`
// adjacency constraints: one edge closure keeps ~Closure·deg common
// neighbors and each further constraint keeps ~DeepClosure of what
// survived. On uniform random graphs the sampled closures are ~deg/N
// and the floor decays below the independence estimate, changing
// nothing; on community-structured graphs it is what keeps deep loops
// — and therefore the materialize-vs-recompute amortization — from
// being priced as if they never ran.
func (e *estimator) closureSize(chain int) float64 {
	if e.st.Closure <= 0 || chain < 2 {
		return 0
	}
	return e.st.AvgDeg * e.st.Closure * math.Pow(e.st.DeepClosure, float64(chain-2))
}

// walk processes a body executed `iters` expected times total; prefCount
// is the profile-unit count of tuples reaching this body (used to chain
// loopCount overrides).
func (e *estimator) walk(body []*ast.Node, iters, prefCount float64) {
	for _, n := range body {
		switch n.Kind {
		case ast.KLoop:
			perIter := e.size[n.Over]
			if perIter < 0 {
				perIter = 0
			}
			total := iters * perIter
			childPref := prefCount * perIter
			if e.loopCount != nil {
				if c, ok := e.loopCount(n.Meta, prefCount); ok {
					// The profile gives the absolute number of prefix
					// tuples, which IS the total iteration count of this
					// loop level (§6.2's key observation). All candidate
					// plans are costed in the same profile units, so the
					// ranking is consistent.
					total = c
					childPref = c
				}
			}
			e.cost += total // loop bookkeeping
			if e.loopTotal != nil {
				e.loopTotal[n.Var] += total
			}
			e.walk(n.Body, math.Max(total, 1e-12), math.Max(childPref, 1e-12))
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
			e.walk(n.Body, iters, prefCount)
		}
	}
}

// hubProbOf returns the probability that at least one of the two
// intersect operands carries a hub bitmap row: only neighbor-derived
// sets can, each independently with probability HubProb.
func (e *estimator) hubProbOf(a, b int) float64 {
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

func (e *estimator) defineSet(n *ast.Node, iters float64) {
	var sz float64
	var nb bool
	ch := 0
	if n.Op != ast.OpAll && n.Op != ast.OpNeighbors {
		ch = e.chain[n.A]
	}
	switch n.Op {
	case ast.OpAll:
		sz, nb = e.st.N, false
	case ast.OpNeighbors:
		sz, nb, ch = e.st.AvgDeg, true, 1
		e.adj[n.Dst] = true
	case ast.OpIntersect:
		a, b := e.size[n.A], e.size[n.B]
		sz = e.intersect(a, b, e.fromNbr[n.A], e.fromNbr[n.B])
		ch = e.chain[n.A] + e.chain[n.B]
		if fl := math.Min(e.closureSize(ch), math.Min(a, b)); fl > sz {
			sz = fl
		}
		nb = e.fromNbr[n.A] || e.fromNbr[n.B]
		// Kernel-aware merge cost: with probability HubProb a
		// neighbor-derived operand has a hub bitmap row and the VM runs
		// the O(min) array×bitmap filter instead of the O(a+b) merge.
		if p := e.hubProbOf(n.A, n.B); p > 0 {
			e.cost += iters * (p*math.Min(a, b) + (1-p)*(a+b))
		} else {
			e.cost += iters * (a + b) // merge cost
		}
	case ast.OpSubtract:
		a, b := e.size[n.A], e.size[n.B]
		frac := 1 - b/math.Max(e.st.N, 1)
		if frac < 0.05 {
			frac = 0.05
		}
		sz, nb = a*frac, e.fromNbr[n.A]
		// A hub row on the subtrahend turns the O(a+b) merge into an
		// O(a) probe filter. Subtraction never gallops in the VM, so
		// the array path is always priced as a merge.
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
			// A slice of the label-grouped adjacency: a binary search of
			// the row's run directory.
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
	e.chain[n.Dst] = ch
}
