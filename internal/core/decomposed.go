package core

import (
	"fmt"
	"slices"

	"decomine/internal/ast"
	"decomine/internal/decomp"
	"decomine/internal/pattern"
)

// DecompSpec describes a generalized-pattern-decomposition algorithm
// (paper Alg. 1) for one cutting set and one matching order tuple
// (o_vc, o_1..o_K, o_s1..o_sn).
type DecompSpec struct {
	D *decomp.Decomposition
	// CutOrder permutes the cutting-set positions (indices into
	// D.CutVerts) — o_vc.
	CutOrder []int
	// SubOrders[i] permutes subpattern i's extension vertices, given as
	// offsets 0..|comp_i|-1 past the cut prefix of Subpatterns[i].Pat —
	// each o_i.
	SubOrders [][]int
	// ShrinkOrders[j] permutes shrinkage j's extension (block) vertices,
	// offsets past the cut prefix of Shrinkages[j].Pat — each o_sj.
	ShrinkOrders [][]int
	// PLRDepth applies pattern-aware loop rewriting to the first
	// PLRDepth cutting-set loops (0 disables; §7.2).
	PLRDepth int
	// SkipShrinkCodes suppresses the enumeration loops of every
	// shrinkage whose quotient pattern's canonical code is in the set.
	// Summed over all cutting-set embeddings, a shrinkage's enumeration
	// total equals inj(q) = copies(q)·|Aut(q)| — a standalone
	// edge-induced pattern count — so a host that already knows
	// copies(q) can subtract it without enumerating (the batch layer's
	// cross-query sharing). Skipped quotients are recorded in
	// Plan.External and the final count must be recovered through
	// Plan.ExtractCount. Only honored for unconstrained ModeCount specs:
	// under label constraints or emission the per-cut totals are not
	// standalone counts, so the set is ignored there.
	SkipShrinkCodes map[pattern.Code]bool
	// Constraints are group label constraints on whole-pattern vertices
	// (§7.5). GenerateDecomposed rejects specs whose constraints do not
	// fit within cut ∪ one component.
	Constraints []LabelConstraint
	Mode        Mode

	// cutSym symmetry-breaks the cutting-set loops by the cut's
	// stabilizer H (DESIGN "Cut symmetry"): each cut tuple is enumerated
	// once per H-orbit and the plan records |H| in Plan.CutSym. Search
	// sets it on the winner it re-emits; only unconstrained ModeCount
	// specs honor it, and it replaces PLR.
	cutSym bool
}

// DefaultOrders fills a DecompSpec with identity matching orders.
func DefaultOrders(d *decomp.Decomposition) DecompSpec {
	spec := DecompSpec{D: d}
	spec.CutOrder = iota_(len(d.CutVerts))
	for _, sp := range d.Subpatterns {
		spec.SubOrders = append(spec.SubOrders, iota_(sp.Pat.NumVertices()-len(d.CutVerts)))
	}
	for _, s := range d.Shrinkages {
		spec.ShrinkOrders = append(spec.ShrinkOrders, iota_(s.Pat.NumVertices()-len(d.CutVerts)))
	}
	return spec
}

// sortReplays puts PLR's prefix automorphisms in canonical replay
// order. Replay σ binds cut position p = cutOrder[j] (j < len(σ)) to
// the var of order position σ[j]; the automorphisms are sorted by that
// map, read at the prefix cut positions in ascending order. Two cut
// orders with the same prefix set, prefix graph and continuation
// replay the same set of bindings (the order positions that tell them
// apart differ by a prefix automorphism), so they replay them in the
// same order and generate the same program (decompSpecs).
func sortReplays(auts [][]int, cutOrder []int) {
	k := len(auts[0])
	orderPos := make([]int, 0, k) // order positions by ascending cut position
	for p := range len(cutOrder) {
		if j := slices.Index(cutOrder, p); j < k {
			orderPos = append(orderPos, j)
		}
	}
	slices.SortFunc(auts, func(a, b []int) int {
		for _, j := range orderPos {
			if a[j] != b[j] {
				return a[j] - b[j]
			}
		}
		return 0
	})
}

func iota_(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// GenerateDecomposed instantiates Algorithm 1 for the spec.
func GenerateDecomposed(spec DecompSpec) (*Plan, error) { return generateDecomposed(spec, nil) }

// generateDecomposed is GenerateDecomposed building from r's free nodes
// (r may be nil).
func generateDecomposed(spec DecompSpec, r *ast.Recycler) (*Plan, error) {
	d := spec.D
	nCut := len(d.CutVerts)
	if err := checkPerm(spec.CutOrder, nCut); err != nil {
		return nil, err
	}
	if len(spec.SubOrders) != len(d.Subpatterns) {
		return nil, fmt.Errorf("core: %d sub orders for %d subpatterns", len(spec.SubOrders), len(d.Subpatterns))
	}
	for i, sp := range d.Subpatterns {
		if err := checkPerm(spec.SubOrders[i], sp.Pat.NumVertices()-nCut); err != nil {
			return nil, err
		}
	}
	if len(spec.ShrinkOrders) != len(d.Shrinkages) {
		return nil, fmt.Errorf("core: %d shrink orders for %d shrinkages", len(spec.ShrinkOrders), len(d.Shrinkages))
	}
	for j, s := range d.Shrinkages {
		if err := checkPerm(spec.ShrinkOrders[j], s.Pat.NumVertices()-nCut); err != nil {
			return nil, err
		}
	}

	if len(spec.Constraints) > 0 {
		var comps []uint32
		for _, sp := range d.Subpatterns {
			comps = append(comps, sp.CompMask)
		}
		if !ConstraintsDecomposable(d.CutMask, comps, spec.Constraints) {
			return nil, fmt.Errorf("core: constraints span multiple components for cut %v; fall back to a direct plan", d.CutVerts)
		}
		// Constrained enumeration of the cut prefix is not compatible
		// with PLR's canonical-prefix replay.
		spec.PLRDepth = 0
	}

	// Cut symmetry: restrict the cut loops to one tuple per orbit of the
	// cut's stabilizer H and scale the enumerated totals by |H| at
	// extraction. Every tuple of an orbit contributes the same
	// ΠM_i − (internal shrinkages), so nothing else changes. Emission and
	// label constraints need every tuple, so they never get H. PLR's
	// replay copies are exactly the orderings H removes, so it is off.
	var cutRestr []pattern.Restriction
	var cutSym int64
	if spec.cutSym && spec.Mode == ModeCount && len(spec.Constraints) == 0 {
		if h := d.P.SetStabilizer(d.CutVerts); len(h) > 1 {
			cutRestr = pattern.GroupSymmetryBreaking(h, nCut)
			cutSym = int64(len(h))
			spec.PLRDepth = 0
		}
	}

	b := ast.NewBuilderFrom(0, r)
	g := newGenCtx(b)
	g.all()
	cnt := b.NewGlobal()
	cutPat := d.CutPattern() // vertices 0..nCut-1 in D.CutVerts order

	// Shrinkage subcount accumulators (unconstrained ModeCount only):
	// shrinkGlob[j] receives shrinkage j's enumeration total alongside
	// the subtraction from cnt, exposing inj(q_j) to the host for
	// harvesting into a subcount cache. Shrinkages whose quotient code
	// the spec marks skippable get no loops at all; the host subtracts
	// copies(q)·|Aut(q)| instead (Plan.ExtractCount). Globals are
	// allocated up front: genBody may run several times under PLR replay
	// and every copy must accumulate into the same registers.
	trackShrink := spec.Mode == ModeCount && len(spec.Constraints) == 0
	shrinkGlob := make([]int, len(d.Shrinkages))
	shrinkSkip := make([]bool, len(d.Shrinkages))
	var shrink []ShrinkCount
	var external []ExternalNeed
	for j := range d.Shrinkages {
		shrinkGlob[j] = -1
	}
	if trackShrink {
		for j, s := range d.Shrinkages {
			code, aut := s.Code, s.Aut
			if spec.SkipShrinkCodes != nil && spec.SkipShrinkCodes[code] {
				shrinkSkip[j] = true
				external = append(external, ExternalNeed{Pat: s.Pat, Code: code, Aut: aut})
				continue
			}
			shrinkGlob[j] = b.NewGlobal()
			shrink = append(shrink, ShrinkCount{Global: shrinkGlob[j], Pat: s.Pat, Code: code, Aut: aut})
		}
	}

	// wholeOfCut maps cut position -> whole-pattern vertex; cutIdx the
	// inverse (-1 for non-cut vertices).
	cutIdx := make([]int, d.P.NumVertices())
	for i := range cutIdx {
		cutIdx[i] = -1
	}
	for j, w := range d.CutVerts {
		cutIdx[w] = j
	}

	// Hash tables (ModeEmit only): one per subpattern, keyed by its
	// extension tuple.
	tables := make([]int, len(d.Subpatterns))
	if spec.Mode == ModeEmit {
		for i := range tables {
			tables[i] = b.NewTable()
		}
	}

	// PLR: restrict the first k cut loops by the symmetric prefix's
	// restrictions, then replay the continuation once per prefix
	// automorphism (Figure 13c).
	plrDepth := spec.PLRDepth
	var plrAuts [][]int
	if plrDepth >= 2 && plrDepth <= nCut {
		prefixVerts := make([]int, plrDepth)
		for i := 0; i < plrDepth; i++ {
			prefixVerts[i] = spec.CutOrder[i]
		}
		prefix := cutPat.InducedSub(prefixVerts) // numbered by cut-order position
		plrAuts = prefix.Automorphisms()
		if len(plrAuts) <= 1 {
			plrDepth = 0 // asymmetric prefix: PLR is a no-op
		} else {
			sortReplays(plrAuts, spec.CutOrder)
			// The prefix restrictions are expressed on prefix vertex
			// IDs = order positions 0..plrDepth-1; translate them to
			// cutPat vertex IDs.
			for _, r := range prefix.SymmetryBreaking() {
				cutRestr = append(cutRestr, pattern.Restriction{
					Less:    spec.CutOrder[r.Less],
					Greater: spec.CutOrder[r.Greater],
				})
			}
		}
	} else {
		plrDepth = 0
	}

	// cutVarOfPos[j] is the engine var bound at cut-order position j.
	cutVarOfPos := make([]int, nCut)

	// genCutLevel generates the cutting-set loops from order position i
	// onward; bindCut maps cut-position -> engine var (cut positions are
	// cutPat's vertex IDs via D.CutVerts ordering... cutPat vertex j is
	// D.CutVerts[j]).
	bindCut := make([]int, nCut)
	for i := range bindCut {
		bindCut[i] = -1
	}

	var genBody func()
	// genCutLevel generates cutting-set loops from order position i on.
	// When compensated is false and i reaches plrDepth, the continuation
	// (remaining cut loops + algorithm body) is replayed once per prefix
	// automorphism with the prefix bindings permuted — the AST-SUBTREE
	// scheduling of Figure 13c. CSE later shares work across the copies.
	var genCutLevel func(i int, compensated bool)
	genCutLevel = func(i int, compensated bool) {
		if plrDepth > 0 && i == plrDepth && !compensated {
			saved := make([]int, plrDepth)
			for j := 0; j < plrDepth; j++ {
				saved[j] = bindCut[spec.CutOrder[j]]
			}
			for _, sigma := range plrAuts {
				for j := 0; j < plrDepth; j++ {
					bindCut[spec.CutOrder[j]] = cutVarOfPos[sigma[j]]
				}
				genCutLevel(i, true)
			}
			for j := 0; j < plrDepth; j++ {
				bindCut[spec.CutOrder[j]] = saved[j]
			}
			return
		}
		if i == nCut {
			genBody()
			return
		}
		pos := spec.CutOrder[i]
		copts := candidateOpts{restrictions: cutRestr, bindingOrder: true}
		copts.sameLabelVars, copts.diffLabelVars = constraintFilters(spec.Constraints, d.CutVerts[pos], func(u int) int {
			if j := cutIdx[u]; j >= 0 {
				return bindCut[j]
			}
			return -1
		})
		cand, meta := buildCandidate(g, cutPat, pos, bindCut, copts)
		v := b.BeginLoop(cand, meta)
		bindCut[pos] = v
		g.bindVar(v)
		cutVarOfPos[i] = v
		genCutLevel(i+1, compensated)
		bindCut[pos] = -1
		b.EndLoop()
	}

	// genExtension generates the extension loops of a sub- or shrinkage
	// pattern `pat` whose first nCut vertices are the cutting set. ord
	// gives the extension order (offsets past the cut). atTuple runs for
	// each complete extension tuple with bind fully populated; countLast,
	// if non-nil, short-circuits the innermost level by calling
	// countLast(sizeScalar) instead of looping (counting optimization).
	genExtension := func(pat *pattern.Pattern, ord []int, wholeOf func(pv int) []int, atTuple func(bind []int), countLast func(x int)) {
		nExt := pat.NumVertices() - nCut
		bind := make([]int, pat.NumVertices())
		for j := 0; j < nCut; j++ {
			// Subpattern vertex j corresponds to cut position: cut verts
			// are sorted in both numberings, so index j maps directly.
			bind[j] = bindCut[j]
		}
		for j := nCut; j < pat.NumVertices(); j++ {
			bind[j] = -1
		}
		// boundVar resolves a whole-pattern vertex to its engine var via
		// the pattern vertices bound so far.
		boundVar := func(u int) int {
			for j := 0; j < pat.NumVertices(); j++ {
				if bind[j] < 0 {
					continue
				}
				for _, w := range wholeOf(j) {
					if w == u {
						return bind[j]
					}
				}
			}
			return -1
		}
		filtersFor := func(pv int) (same, diff []int) {
			if len(spec.Constraints) == 0 {
				return nil, nil
			}
			for _, w := range wholeOf(pv) {
				s, dd := constraintFilters(spec.Constraints, w, boundVar)
				same = append(same, s...)
				diff = append(diff, dd...)
			}
			return same, diff
		}
		var rec func(i int)
		rec = func(i int) {
			pv := nCut + ord[i]
			last := i == nExt-1
			copts := candidateOpts{}
			copts.sameLabelVars, copts.diffLabelVars = filtersFor(pv)
			if last && countLast != nil {
				copts.counted = true
				cand, _ := buildCandidate(g, pat, pv, bind, copts)
				countLast(b.Size(cand))
				return
			}
			cand, meta := buildCandidate(g, pat, pv, bind, copts)
			v := b.BeginLoop(cand, meta)
			bind[pv] = v
			g.bindVar(v)
			if last {
				atTuple(bind)
			} else {
				rec(i + 1)
			}
			bind[pv] = -1
			b.EndLoop()
		}
		if nExt == 0 {
			atTuple(bind)
			return
		}
		rec(0)
	}

	genBody = func() {
		// Step 0 (ModeEmit): O(1) clear of the shrinkage tables (Alg. 1
		// line 6, with the epoch optimization of §5).
		if spec.Mode == ModeEmit {
			for _, t := range tables {
				b.HashClear(t)
			}
		}
		// Step 1: per-subpattern extension counts M_i (lines 7-10).
		mi := make([]int, len(d.Subpatterns))
		for i, sp := range d.Subpatterns {
			acc := b.NewAccumulator()
			b.Reset(acc, 0)
			sp := sp
			genExtension(sp.Pat, spec.SubOrders[i],
				func(pv int) []int { return sp.ToWhole[pv : pv+1] },
				func([]int) { one := b.Const(1); b.Accum(acc, one, 1) },
				func(x int) { b.Accum(acc, x, 1) })
			mi[i] = acc
		}
		m := mi[0]
		for i := 1; i < len(mi); i++ {
			m = b.Mul(m, mi[i])
		}
		// Line 11: pattern_cnt += M.
		b.GlobalAdd(cnt, m, 1)
		// Steps 2-3 only matter when M > 0 (their contributions are zero
		// otherwise — every shrinkage tuple projects onto valid
		// subpattern extensions).
		b.BeginCond(m)
		// Step 2: shrinkage enumeration (lines 12-16).
		for j, s := range d.Shrinkages {
			s := s
			shrinkWholeOf := func(pv int) []int {
				if pv < nCut {
					return d.CutVerts[pv : pv+1]
				}
				return s.Blocks[pv-nCut]
			}
			if spec.Mode == ModeCount {
				if shrinkSkip[j] {
					// Externalized: the host subtracts this quotient's
					// standalone count; no loops are generated.
					continue
				}
				sg := shrinkGlob[j]
				genExtension(s.Pat, spec.ShrinkOrders[j], shrinkWholeOf,
					func([]int) {
						one := b.Const(1)
						b.GlobalAdd(cnt, one, -1)
						if sg >= 0 {
							b.GlobalAdd(sg, one, 1)
						}
					},
					func(x int) {
						b.GlobalAdd(cnt, x, -1)
						if sg >= 0 {
							b.GlobalAdd(sg, x, 1)
						}
					})
				continue
			}
			genExtension(s.Pat, spec.ShrinkOrders[j], shrinkWholeOf, func(bind []int) {
				one := b.Const(1)
				b.GlobalAdd(cnt, one, -1)
				// extract_subpattern_embedding: project the shrinkage
				// tuple onto each subpattern's extension key (line 15-16).
				for i, sp := range d.Subpatterns {
					keys := make([]int, 0, sp.Pat.NumVertices()-nCut)
					for spv := nCut; spv < sp.Pat.NumVertices(); spv++ {
						q := s.Proj[i][spv]
						keys = append(keys, bind[q])
					}
					b.HashInc(tables[i], keys, 1)
				}
			}, nil)
		}
		// Step 3 (ModeEmit): emission loops (lines 17-21).
		if spec.Mode == ModeEmit {
			for i, sp := range d.Subpatterns {
				mOverMi := b.Div(m, mi[i])
				sp := sp
				genExtension(sp.Pat, spec.SubOrders[i],
					func(pv int) []int { return sp.ToWhole[pv : pv+1] },
					func(bind []int) {
						extKeys := make([]int, 0, sp.Pat.NumVertices()-nCut)
						for spv := nCut; spv < sp.Pat.NumVertices(); spv++ {
							extKeys = append(extKeys, bind[spv])
						}
						h := b.HashGet(tables[i], extKeys)
						c := b.Sub(mOverMi, h)
						b.BeginCond(c)
						all := make([]int, sp.Pat.NumVertices())
						copy(all, bind)
						b.Emit(i, all, c)
						b.EndCond()
					}, nil)
			}
		}
		b.EndCond()
	}

	genCutLevel(0, false)
	prog := b.Finish()
	plr := ""
	if plrDepth > 0 {
		plr = fmt.Sprintf(" plr=%d(x%d)", plrDepth, len(plrAuts))
	}
	divisor := d.Aut
	if len(spec.Constraints) > 0 {
		divisor = ConstraintAutomorphismCount(d.P, spec.Constraints)
	}
	ext := ""
	if len(external) > 0 {
		ext = fmt.Sprintf(" ext=%d", len(external))
	}
	if cutSym > 0 {
		ext += fmt.Sprintf(" cutsym=%d", cutSym)
	}
	return &Plan{
		Prog:          prog,
		CountGlobal:   cnt,
		Divisor:       divisor,
		Kind:          "decomposed",
		Decomposition: d,
		Shrink:        shrink,
		External:      external,
		CutSym:        cutSym,
		spec:          &spec,
		Desc: fmt.Sprintf("decomposed cut=%v cutOrder=%v K=%d shrinkages=%d%s%s",
			d.CutVerts, spec.CutOrder, d.K(), len(d.Shrinkages), plr, ext),
	}, nil
}
