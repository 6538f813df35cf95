// Package core is DecoMine's compiler: the front-end that generates
// algorithm ASTs for every (cutting set × matching order) candidate from
// the generalized decomposition template (paper Alg. 1), the pattern-aware
// loop rewriting transformation (§7.2), the algorithm search engine that
// ranks candidates with a cost model (§7.3), and the Go source back-end
// (§7.4 analogue).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"decomine/internal/ast"
	"decomine/internal/decomp"
	"decomine/internal/pattern"
)

// Mode selects what the generated program does with matched embeddings.
type Mode int

const (
	// ModeCount only accumulates the pattern count (Alg. 1 without lines
	// 14-21).
	ModeCount Mode = iota
	// ModeEmit additionally builds the num_shrinkages table and emits
	// partial embeddings with their expansion counts (full Alg. 1).
	ModeEmit
)

// ShrinkCount locates one enumerated shrinkage quotient's injective
// count in a decomposed plan's globals: after a run, Globals[Global]
// holds inj(Pat) — the number of injective edge-preserving maps of the
// quotient into the input — so Globals[Global]/Aut is the quotient's
// standalone edge-induced copy count, harvestable into a subcount cache
// for free from any decomposed run (unconstrained ModeCount plans only).
type ShrinkCount struct {
	Global int
	Pat    *pattern.Pattern
	Code   pattern.Code
	Aut    int64
}

// ExternalNeed is a shrinkage whose enumeration loops were skipped
// (DecompSpec.SkipShrinkCodes): the plan's raw count omits its
// subtraction, and ExtractCount recovers it from a host-supplied
// standalone copy count as copies(Pat)·Aut.
type ExternalNeed struct {
	Pat  *pattern.Pattern
	Code pattern.Code
	Aut  int64
}

// Plan is a compiled, executable algorithm.
type Plan struct {
	Prog *ast.Program
	// CountGlobal indexes the global accumulator holding the raw count.
	CountGlobal int
	// Divisor converts the raw (injective-tuple) count into the
	// embedding count: |Aut(p)|, or 1 when full symmetry breaking
	// already canonicalizes.
	Divisor int64
	// Kind is "direct" or "decomposed".
	Kind string
	// Desc is a human-readable summary of the algorithm choice.
	Desc string
	// Decomposition is non-nil for decomposed plans; consumers use it to
	// interpret emitted partial embeddings (subpattern shapes and the
	// subpattern-to-whole vertex mappings).
	Decomposition *decomp.Decomposition
	// Shrink exposes the plan's enumerated shrinkage-quotient
	// accumulators (decomposed unconstrained count plans only; see
	// ShrinkCount). The raw count in CountGlobal already includes their
	// subtraction — these registers are a free by-product for harvesting.
	Shrink []ShrinkCount
	// External lists shrinkages whose loops were skipped; non-empty only
	// for plans compiled with DecompSpec.SkipShrinkCodes. Such plans
	// must be extracted through ExtractCount with a resolver.
	External []ExternalNeed
	// CutSym is |H|, the order of the cut stabilizer whose orbits the
	// cutting-set loops enumerate one tuple of (decomposed plans that
	// Search re-emitted symmetry-broken; 0 when every cut tuple is
	// enumerated). The raw count and the shrinkage accumulators then
	// hold 1/|H| of the unrestricted totals, so read them only through
	// ExtractCount and SubCounts.
	CutSym int64

	// LowerOpts configures the lowering pipeline (auxiliary-graph
	// materialization and its decision callback). Must be set before the
	// first Lowered call; Search wires it from SearchOptions and the
	// active cost model.
	LowerOpts ast.LowerOpts

	// spec is the decomposed plan's spec, kept for Search's winner step.
	spec *DecompSpec

	lowerOnce sync.Once
	lowered   *ast.Lowered
}

// Lowered returns the plan's bytecode form, lowering Prog on first call
// and caching the result. The Prog must not be mutated after the first
// call (plans are immutable once built, so callers get amortized-free
// bytecode across repeated executions of a cached plan).
func (p *Plan) Lowered() *ast.Lowered {
	p.lowerOnce.Do(func() { p.lowered = ast.LowerWith(p.Prog, p.LowerOpts) })
	return p.lowered
}

// cutOrbit is the factor a cut-symmetric plan's enumerated totals are
// scaled by: |H|, or 1 for every other plan.
func (p *Plan) cutOrbit() int64 { return max(p.CutSym, 1) }

// ExtractCount converts a run's raw globals into the plan's embedding
// count. For ordinary plans this is Globals[CountGlobal]/Divisor; a
// cut-symmetric plan's raw count is first scaled by CutSym. For plans
// with externalized shrinkages (non-empty External) the resolver must
// supply each skipped quotient's standalone edge-induced copy count,
// whose inj total (copies·Aut) is subtracted before dividing — exactly
// the subtraction the skipped loops would have performed.
//
// Every product and difference is checked: a total that does not fit in
// an int64 fails with an error wrapping ErrCountOverflow.
func (p *Plan) ExtractCount(globals []int64, resolve func(pattern.Code) (int64, bool)) (int64, error) {
	raw, ok := mul64(globals[p.CountGlobal], p.cutOrbit())
	if !ok {
		return 0, fmt.Errorf("%w: raw count %d × cut orbit %d", ErrCountOverflow, globals[p.CountGlobal], p.cutOrbit())
	}
	for _, ext := range p.External {
		if resolve == nil {
			return 0, fmt.Errorf("core: plan has externalized shrinkage %s but no resolver", ext.Pat)
		}
		copies, ok := resolve(ext.Code)
		if !ok {
			return 0, fmt.Errorf("core: no external count for shrinkage %s", ext.Pat)
		}
		inj, ok := mul64(copies, ext.Aut)
		if ok {
			raw, ok = sub64(raw, inj)
		}
		if !ok {
			return 0, fmt.Errorf("%w: subtracting %d copies of shrinkage %s", ErrCountOverflow, copies, ext.Pat)
		}
	}
	return raw / p.Divisor, nil
}

// ErrCountOverflow is wrapped by the error ExtractCount returns when a
// count does not fit in an int64.
var ErrCountOverflow = errors.New("core: count overflows int64")

// mul64 returns a·b and whether the product fits in an int64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absU64(a), absU64(b))
	if (a < 0) != (b < 0) {
		// The magnitude of a negative int64 reaches 2^63.
		if hi != 0 || lo > 1<<63 {
			return 0, false
		}
		return -int64(lo), true
	}
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// absU64 is |a| as a uint64, exact for math.MinInt64 too.
func absU64(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

// add64 returns a+b and whether the sum fits in an int64.
func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a >= 0) != (b >= 0) || (s >= 0) == (a >= 0)
}

// sub64 returns a−b and whether the difference fits in an int64.
func sub64(a, b int64) (int64, bool) {
	d := a - b
	return d, (a >= 0) == (b >= 0) || (d >= 0) == (a >= 0)
}

// SubCounts harvests the standalone edge-induced copy counts of every
// shrinkage quotient the plan enumerated, keyed by canonical code (a
// free by-product of any decomposed unconstrained count run; empty for
// direct plans). Duplicate quotients (same code via different cut
// embedding structure) are collapsed by summing their accumulators:
// the n shrinkages of one code each total inj(q) over all cut tuples,
// and their sum is the one total a cut-symmetric plan keeps exact
// (an automorphism of the cut maps a shrinkage to one of the same
// code), so copies(q) = Σ·CutSym / (n·Aut). The defensive
// divisibility check guards the invariant. A code whose Σ or Σ·CutSym
// does not fit in an int64 is left out, as one that fails the check is.
func (p *Plan) SubCounts(globals []int64) map[pattern.Code]int64 {
	if len(p.Shrink) == 0 {
		return nil
	}
	type total struct {
		sum, n, aut int64
		overflow    bool
	}
	totals := make(map[pattern.Code]*total, len(p.Shrink))
	for _, sh := range p.Shrink {
		t := totals[sh.Code]
		if t == nil {
			t = &total{aut: sh.Aut}
			totals[sh.Code] = t
		}
		var ok bool
		t.sum, ok = add64(t.sum, globals[sh.Global])
		t.overflow = t.overflow || !ok
		t.n++
	}
	out := make(map[pattern.Code]int64, len(totals))
	for c, t := range totals {
		inj, ok := mul64(t.sum, p.cutOrbit())
		div := t.n * t.aut
		if t.overflow || !ok || div == 0 || inj%div != 0 {
			continue // defensive: inj(pat) is always a multiple of |Aut|
		}
		out[c] = inj / div
	}
	return out
}

// genCtx carries shared state across the generation of one program.
type genCtx struct {
	b       *ast.Builder
	allReg  int
	haveAll bool
	// nbrCache memoizes Neighbors defs per engine var within the current
	// generation (the optimizer would also CSE them; caching here keeps
	// naive ASTs small).
	nbrCache map[int]int
	// verts is buildCandidate's reusable list of pattern vertices.
	verts []int
}

func newGenCtx(b *ast.Builder) *genCtx {
	return &genCtx{b: b, nbrCache: map[int]int{}}
}

func (g *genCtx) all() int {
	if !g.haveAll {
		g.allReg = g.b.All()
		g.haveAll = true
	}
	return g.allReg
}

// bindVar registers an eager N(v) definition for a freshly bound vertex
// variable. Neighbor sets are defined at the variable's binding scope —
// never inside a deeper sibling loop — so every later use reads a live
// register regardless of how many iterations intervening loops execute.
// OpNeighbors aliases the CSR row at runtime (zero cost), so the eager
// definition is free; DCE removes it when unused.
func (g *genCtx) bindVar(v int) {
	g.nbrCache[v] = g.b.Neighbors(v)
}

func (g *genCtx) neighbors(v int) int {
	r, ok := g.nbrCache[v]
	if !ok {
		panic(fmt.Sprintf("core: neighbors of unbound var v%d", v))
	}
	return r
}

// candidateOpts configures buildCandidate.
type candidateOpts struct {
	induced      bool                  // vertex-induced: subtract non-neighbor sets
	restrictions []pattern.Restriction // symmetry-breaking order constraints
	// sameLabelVars / diffLabelVars are engine vars whose labels the
	// candidate must match / avoid (label constraints, §7.5).
	sameLabelVars []int
	diffLabelVars []int
	// bindingOrder folds the bound vertices in the order their engine
	// vars were bound instead of in pattern-vertex order. The cut loops
	// of a decomposed plan use it, so their intersections and removals
	// depend on loop depth, not on how the cut positions are numbered.
	// Direct plans and subpattern bodies keep pattern-vertex order:
	// binding order there doubles the merge work of the pseudo-clique
	// plans (DESIGN "Twin PLR specs are skipped").
	bindingOrder bool
	// counted marks a candidate set the caller counts instead of looping
	// over: it needs no LoopMeta.
	counted bool
}

// ConstraintKind discriminates label constraints.
type ConstraintKind int

const (
	// AllSame requires every listed pattern vertex to map to vertices
	// with equal labels.
	AllSame ConstraintKind = iota
	// AllDifferent requires pairwise distinct labels.
	AllDifferent
)

// LabelConstraint is a sub-constraint F_i(e_i) over whole-pattern
// vertices (paper §7.5): the conjunction of all constraints must hold for
// an embedding to count.
type LabelConstraint struct {
	Kind  ConstraintKind
	Verts []int
}

// constraintFilters computes, for whole-pattern vertex w about to be
// enumerated, the dynamic label filters implied by the constraints, given
// boundVar: whole-pattern vertex -> engine var (-1 unbound). For AllSame
// one bound witness suffices; for AllDifferent every bound member
// contributes a filter.
func constraintFilters(constraints []LabelConstraint, w int, boundVar func(int) int) (same, diff []int) {
	for _, c := range constraints {
		member := false
		for _, v := range c.Verts {
			if v == w {
				member = true
				break
			}
		}
		if !member {
			continue
		}
		for _, v := range c.Verts {
			if v == w {
				continue
			}
			bv := boundVar(v)
			if bv < 0 {
				continue
			}
			if c.Kind == AllSame {
				same = append(same, bv)
				break // one witness pins the label
			}
			diff = append(diff, bv)
		}
	}
	return same, diff
}

// ConstraintAutomorphismCount returns the number of automorphisms of p
// that preserve the constraint structure (mapping each constraint's
// vertex set onto a same-kind constraint's vertex set). This is the
// multiplicity divisor for constrained queries.
func ConstraintAutomorphismCount(p *pattern.Pattern, constraints []LabelConstraint) int64 {
	sets := make([]uint32, len(constraints))
	for i, c := range constraints {
		for _, v := range c.Verts {
			sets[i] |= 1 << uint(v)
		}
	}
	var cnt int64
	for _, sigma := range p.Automorphisms() {
		ok := true
		for _, c := range constraints {
			var img uint32
			for _, v := range c.Verts {
				img |= 1 << uint(sigma[v])
			}
			found := false
			for j, c2 := range constraints {
				if c2.Kind == c.Kind && sets[j] == img {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			cnt++
		}
	}
	if cnt == 0 {
		cnt = 1
	}
	return cnt
}

// ConstraintsDecomposable reports whether every constraint's vertices fit
// within the cutting set plus a single component — the condition under
// which the decomposition can resolve the constraints on partially
// materialized embeddings (§7.5). When false the system must fall back
// to a non-decomposition method.
func ConstraintsDecomposable(cutMask uint32, comps []uint32, constraints []LabelConstraint) bool {
	for _, c := range constraints {
		var mask uint32
		for _, v := range c.Verts {
			mask |= 1 << uint(v)
		}
		ext := mask &^ cutMask
		if ext == 0 {
			continue
		}
		inOne := false
		for _, comp := range comps {
			if ext&^comp == 0 {
				inOne = true
				break
			}
		}
		if !inOne {
			return false
		}
	}
	return true
}

// buildCandidate emits the candidate-set computation for pattern vertex
// pv of pat, given bind (pattern vertex -> engine var, -1 if unbound).
// It returns the candidate set register and the LoopMeta describing the
// prefix pattern (bound vertices plus pv), nil for a counted set.
func buildCandidate(g *genCtx, pat *pattern.Pattern, pv int, bind []int, opts candidateOpts) (int, *ast.LoopMeta) {
	b := g.b
	var meta ast.LoopMeta
	cand := -1
	boundVerts := g.verts[:0]
	defer func() { g.verts = boundVerts[:0] }()
	for u := 0; u < pat.NumVertices(); u++ {
		if bind[u] >= 0 && u != pv {
			boundVerts = append(boundVerts, u)
		}
	}
	if opts.bindingOrder {
		slices.SortFunc(boundVerts, func(u, w int) int { return bind[u] - bind[w] })
	}
	// 1. Intersect neighbor lists of bound pattern-neighbors. A static
	// label applies to each list before the intersection: N(u) ∩
	// {label = l} is a slice of the graph's label-grouped adjacency, and
	// CSE shares it between every candidate set that reads it.
	label := pat.Label(pv)
	for _, u := range boundVerts {
		if !pat.HasEdge(u, pv) {
			continue
		}
		ns := g.neighbors(bind[u])
		if label != pattern.NoLabel {
			ns = b.FilterLabel(ns, label)
		}
		if cand < 0 {
			cand = ns
		} else {
			cand = b.Intersect(cand, ns)
		}
		meta.Constraints++
	}
	if cand < 0 {
		cand = g.all()
		if label != pattern.NoLabel {
			cand = b.FilterLabel(cand, label)
		}
	}
	// 2. Vertex-induced: exclude neighbors of bound non-neighbors.
	if opts.induced {
		for _, u := range boundVerts {
			if pat.HasEdge(u, pv) {
				continue
			}
			cand = b.Subtract(cand, g.neighbors(bind[u]))
			meta.Subtractions++
		}
	}
	// 3. Dynamic same/different-label filters from group constraints.
	for _, v := range opts.sameLabelVars {
		cand = b.FilterLabelOfVar(cand, v)
	}
	for _, v := range opts.diffLabelVars {
		cand = b.FilterLabelNotOfVar(cand, v)
	}
	// 4. Symmetry-breaking trims. Track which bound vertices the trims
	// already exclude (x > v and x < v both exclude v itself).
	trimmed := map[int]bool{}
	for _, r := range opts.restrictions {
		if r.Greater == pv && bind[r.Less] >= 0 {
			cand = b.TrimBelow(cand, bind[r.Less])
			trimmed[r.Less] = true
			meta.Trimmed = true
		}
		if r.Less == pv && bind[r.Greater] >= 0 {
			cand = b.TrimAbove(cand, bind[r.Greater])
			trimmed[r.Greater] = true
			meta.Trimmed = true
		}
	}
	// 5. Distinctness: candidates intersected with N(u) already exclude
	// u; remove the remaining bound vertices explicitly.
	for _, u := range boundVerts {
		if pat.HasEdge(u, pv) || trimmed[u] {
			continue
		}
		cand = b.Remove(cand, bind[u])
	}
	if opts.counted {
		return cand, nil
	}
	// Prefix metadata for the cost models.
	boundVerts = append(boundVerts, pv)
	prefix := pat.InducedSub(boundVerts)
	if prefix.Connected() && prefix.NumVertices() >= 1 {
		meta.Prefix = prefix
		meta.PrefixCode = prefix.Canonical()
	}
	return cand, &meta
}

// DirectSpec describes a non-decomposed (AutoMine-style) algorithm.
type DirectSpec struct {
	Pattern *pattern.Pattern
	// Order is the pattern-vertex matching order (a permutation of
	// 0..n-1).
	Order []int
	// SymmetryBreak enables full symmetry-breaking restrictions.
	SymmetryBreak bool
	// Induced enumerates vertex-induced embeddings directly.
	Induced bool
	// Constraints are group label constraints (§7.5); they disable
	// symmetry breaking implicitly when they break pattern symmetry, so
	// callers should pass SymmetryBreak=false unless the constraints are
	// symmetric under Aut(p).
	Constraints []LabelConstraint
	// CountLastLoop replaces the innermost loop by a set-size count
	// (GraphPi's "mathematical" counting optimization; only in ModeCount).
	CountLastLoop bool
	Mode          Mode
}

// GenerateDirect builds the nested-loop enumeration program for a
// pattern without decomposition.
func GenerateDirect(spec DirectSpec) (*Plan, error) { return generateDirect(spec, nil) }

// generateDirect is GenerateDirect building from r's free nodes (r may
// be nil).
func generateDirect(spec DirectSpec, r *ast.Recycler) (*Plan, error) {
	p := spec.Pattern
	n := p.NumVertices()
	if len(spec.Order) != n {
		return nil, fmt.Errorf("core: order length %d for %d-pattern", len(spec.Order), n)
	}
	if err := checkPerm(spec.Order, n); err != nil {
		return nil, err
	}
	b := ast.NewBuilderFrom(0, r)
	g := newGenCtx(b)
	g.all() // define V at root scope so every worker frame sees it
	cnt := b.NewGlobal()
	var restr []pattern.Restriction
	divisor := p.AutomorphismCount()
	if len(spec.Constraints) > 0 {
		divisor = ConstraintAutomorphismCount(p, spec.Constraints)
	}
	if spec.SymmetryBreak && len(spec.Constraints) == 0 {
		restr = p.SymmetryBreaking()
		divisor = 1
	}
	bind := make([]int, n)
	for i := range bind {
		bind[i] = -1
	}
	opts := candidateOpts{induced: spec.Induced, restrictions: restr}

	var emitLevel func(i int)
	emitLevel = func(i int) {
		pv := spec.Order[i]
		last := i == n-1
		if last && spec.Mode == ModeCount && spec.CountLastLoop {
			clOpts := opts
			clOpts.counted = true
			clOpts.sameLabelVars, clOpts.diffLabelVars = constraintFilters(spec.Constraints, pv, func(u int) int { return bind[u] })
			cand, _ := buildCandidate(g, p, pv, bind, clOpts)
			x := b.Size(cand)
			b.GlobalAdd(cnt, x, 1)
			return
		}
		lopts := opts
		lopts.sameLabelVars, lopts.diffLabelVars = constraintFilters(spec.Constraints, pv, func(u int) int { return bind[u] })
		cand, meta := buildCandidate(g, p, pv, bind, lopts)
		v := b.BeginLoop(cand, meta)
		bind[pv] = v
		g.bindVar(v)
		if last {
			one := b.Const(1)
			if spec.Mode == ModeEmit {
				keys := make([]int, n)
				for u := 0; u < n; u++ {
					keys[u] = bind[u]
				}
				b.Emit(0, keys, one)
			}
			b.GlobalAdd(cnt, one, 1)
		} else {
			emitLevel(i + 1)
		}
		bind[pv] = -1
		b.EndLoop()
	}
	emitLevel(0)
	prog := b.Finish()
	return &Plan{
		Prog:        prog,
		CountGlobal: cnt,
		Divisor:     divisor,
		Kind:        "direct",
		Desc:        fmt.Sprintf("direct order=%v sb=%v induced=%v", spec.Order, spec.SymmetryBreak, spec.Induced),
	}, nil
}

// GeneratePinned builds a whole-embedding enumeration plan in which the
// `pinned` pattern vertices are preloaded into engine variables 0..k-1
// (in the order given) and the `rest` are enumerated by nested loops.
// Each complete injective extension is emitted once as subpattern 0 with
// the full vertex tuple ordered by whole-pattern vertex ID and count 1.
// Used by the materialize API.
func GeneratePinned(p *pattern.Pattern, pinned, rest []int) (*Plan, error) {
	n := p.NumVertices()
	if len(pinned)+len(rest) != n {
		return nil, fmt.Errorf("core: pin split %v/%v does not cover %d vertices", pinned, rest, n)
	}
	if err := checkPerm(append(append([]int(nil), pinned...), rest...), n); err != nil {
		return nil, err
	}
	b := ast.NewBuilder(len(pinned))
	g := newGenCtx(b)
	g.all()
	for i := range pinned {
		g.bindVar(i) // eager N(pin) at root scope
	}
	cnt := b.NewGlobal()
	bind := make([]int, n)
	for i := range bind {
		bind[i] = -1
	}
	for i, w := range pinned {
		bind[w] = i
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(rest) {
			keys := make([]int, n)
			for v := 0; v < n; v++ {
				keys[v] = bind[v]
			}
			one := b.Const(1)
			b.Emit(0, keys, one)
			b.GlobalAdd(cnt, one, 1)
			return
		}
		pv := rest[i]
		cand, meta := buildCandidate(g, p, pv, bind, candidateOpts{})
		v := b.BeginLoop(cand, meta)
		bind[pv] = v
		g.bindVar(v)
		rec(i + 1)
		bind[pv] = -1
		b.EndLoop()
	}
	rec(0)
	return &Plan{
		Prog:        b.Finish(),
		CountGlobal: cnt,
		Divisor:     1,
		Kind:        "pinned",
		Desc:        fmt.Sprintf("pinned %v, enumerate %v", pinned, rest),
	}, nil
}

func checkPerm(order []int, n int) error {
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("core: invalid matching order %v", order)
		}
		seen[v] = true
	}
	return nil
}
