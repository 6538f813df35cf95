package ast

// Local bitset neighbourhoods: the last pass of LowerWith. Under a root
// v0 of a clique-like plan every set the deeper loops define lies in
// N(v0), which holds a few dozen vertices on the graphs this system
// mines. The pass finds such a depth-1 set S and marks the region below
// it: an ILocalBuild after S's definition ranks S's members
// [0, |S|) in ID order and builds a row mask N(u) ∩ S for every member u
// the region's loops can bind, and every instruction of the region that
// reads a set runs in the word form (Sandslash's local graph search,
// GraphMini's depth-1 rows as bitmasks):
//
//   - X ∩ N(vk) is X & row(vk), X − N(vk) is X &^ row(vk);
//   - trims, windows and single-vertex removals are masks of ranks
//     (S is in ID order, so {x > v} is a suffix of ranks);
//   - sizes and counts are popcounts;
//   - loops iterate set bits, binding each variable's ID in vars and its
//     rank beside it.
//
// The stream is one for every root: ILocalBuild picks the word form or
// the list form per root (the engine keeps the list form for an S wider
// than its word budget or holding a hub), and flagged instructions
// (FlagLocal) follow that choice. Both forms compute the same values,
// execute the same instructions, and differ only in kernel work.
//
// S is N(v0), or its trim N⁺(v0) (N⁻(v0)) when every read of a set S
// does not contain is windowed above (below) v0. A register is read in
// the word form as one of LocalKind: a subset of S the region defines
// (its own mask), S or the list S was trimmed from (S's full mask, only
// where the reader's result is proved inside S), or N(vk) / an auxiliary
// row of a variable vk a region loop binds (vk's row). Anything else — a
// label filter, a set the region defines outside S, the size of a
// neighbor list — keeps the whole root body in the list form, and so
// does a region whose word ops would all run at depth 2 or less, where
// the row builds cost as much as the merges they replace.
//
// An auxiliary table (aux.go) whose source lies in S is not built on a
// root that runs in the word form: its rows are row masks there. A build
// glued before S's definition moves after the ILocalBuild, which must
// decide first.

import "slices"

// LocalKind is how the word form of a local region reads a set register.
type LocalKind uint8

const (
	// LocalNone: the register is not read in the word form.
	LocalNone LocalKind = iota
	// LocalMask: a subset of S defined in the region, held as its mask.
	LocalMask
	// LocalRow: N(vk), or auxiliary row N(vk) ∩ C, of a variable vk a
	// region loop binds: read as vk's row mask N(vk) ∩ S.
	LocalRow
	// LocalAll: S, or the list S was trimmed from: read as S's full mask.
	LocalAll
)

// localMinDepth is the shallowest loop depth at which a region must
// run a word op: at depth 2 each row is read once per root, and
// building it costs about what the merge it replaces costs. Measured on
// the 3–5-motif census plans whose only word ops run at depth 2, one
// thread: the word form took 0.7–0.8× the list form's time on a
// community graph and on an R-MAT without hub rows, but 1.06–1.2× on an
// R-MAT with hub rows (most roots fall back) and 1.3–1.4× on a sparse
// G(n,p) (DESIGN, "Local bitset neighbourhoods").
const localMinDepth = 3

// localRegion is one region the pass found: its build instruction, the
// registers' kinds and the instructions that run in the word form.
type localRegion struct {
	def   int32 // pc of S's definition; the build goes right after it
	build Instr
	kind  map[int32]LocalKind
	flag  []int32 // pcs of the region's word-form instructions
	moved []int32 // pcs of table builds that move after the build
}

// localize applies the pass, given the code's trim order: at most one
// region per root-level loop.
func (l *Lowered) localize(o *trimOrder) {
	sc := o.sc
	var regions []*localRegion
	for _, seg := range l.Segments {
		if seg.Loop {
			if r := l.findRegion(sc, o, seg); r != nil {
				regions = append(regions, r)
			}
		}
	}
	if len(regions) == 0 {
		return
	}
	l.Local = make([]LocalKind, l.SetRegs())
	keep := make([]bool, len(l.Code))
	for i := range keep {
		keep[i] = true
	}
	after := map[int32][]Instr{}
	for _, r := range regions {
		for reg, k := range r.kind {
			l.Local[reg] = k
		}
		for _, pc := range r.flag {
			l.Code[pc].Flags |= FlagLocal
		}
		after[r.def] = append(after[r.def], r.build)
		for _, pc := range r.moved {
			keep[pc] = false
			after[r.def] = append(after[r.def], l.Code[pc])
		}
		// The build is an instruction the AST never priced: charge it to
		// the root loop as a negative deletion, so executed plus elided
		// still equals the uncleaned run.
		l.Code[sc.encLoop[r.def]].Imm--
	}
	l.splice(keep, after)
}

// splice rebuilds the code without the instructions keep marks false and
// with after[i] inserted after instruction i, re-resolving every
// absolute offset. A target at a deleted instruction maps to what
// follows it.
func (l *Lowered) splice(keep []bool, after map[int32][]Instr) {
	old := l.Code
	at := make([]int32, len(old)+1)
	code := make([]Instr, 0, len(old)+len(after))
	for i := range old {
		at[i] = int32(len(code))
		if keep[i] {
			code = append(code, old[i])
		}
		code = append(code, after[int32(i)]...)
	}
	at[len(old)] = int32(len(code))
	for i := range code {
		switch ins := &code[i]; ins.Op {
		case ILoopBegin, ILoopNext, ICondSkip:
			ins.Off = at[ins.Off]
		}
	}
	for i := range l.Segments {
		l.Segments[i].Start = at[l.Segments[i].Start]
		l.Segments[i].End = at[l.Segments[i].End]
	}
	l.Code = code
}

// findRegion returns the region under root segment seg, or nil. S's
// candidates are the trims of N(v0) by v0, then N(v0) itself, among the
// definitions in the body's first straight-line block: ILocalBuild must
// run on every path into the region.
func (l *Lowered) findRegion(sc *auxScan, o *trimOrder, seg Segment) *localRegion {
	v0 := seg.Var
	n0 := int32(-1)
	var trims []int32
	for pc := seg.Start + 1; pc < seg.End-1; pc++ {
		ins := &l.Code[pc]
		if ins.Op == ILoopBegin || ins.Op == ICondSkip {
			break
		}
		switch {
		case ins.Op != ISetDef:
		case ins.Set == OpNeighbors && ins.V == v0 && n0 < 0:
			n0 = int32(pc)
		case (ins.Set == OpTrimBelow || ins.Set == OpTrimAbove) && ins.V == v0 && n0 >= 0 && ins.A == l.Code[n0].Dst:
			trims = append(trims, int32(pc))
		}
	}
	if n0 < 0 {
		return nil
	}
	for _, def := range append(trims, n0) {
		if r := l.classify(sc, o, seg, def); r != nil {
			return r
		}
	}
	return nil
}

// classify checks every instruction after S's definition (at def) in
// seg's body and returns the region, or nil when some instruction
// cannot run in the word form or none would gain from it.
func (l *Lowered) classify(sc *auxScan, o *trimOrder, seg Segment, def int32) *localRegion {
	sdef := &l.Code[def]
	s, base := sdef.Dst, int32(-1)
	if sdef.Set != OpNeighbors {
		base = sdef.A
	}
	r := &localRegion{def: def, kind: map[int32]LocalKind{s: LocalAll}}
	if base >= 0 {
		r.kind[base] = LocalAll
	}
	// within reports whether register x, cut to the window above
	// vars[lo] and below vars[hi] (-1: no bound) where pc reads it, lies
	// in S: it is one of S's subsets, or S's own list cut by a bound
	// that implies S's trim.
	within := func(x, lo, hi, pc int32) bool {
		switch {
		case r.kind[x] == LocalMask || x == s:
			return true
		case x != base:
			return false
		case sdef.Set == OpTrimBelow:
			return lo >= 0 && o.implies(lo, sdef.V, pc, def, OpTrimBelow)
		default:
			return hi >= 0 && o.implies(hi, sdef.V, pc, def, OpTrimAbove)
		}
	}
	bound := map[int32]bool{}     // variables the region's loops bind
	rowVar := map[int32]int32{}   // LocalRow register -> its variable
	skipped := map[int32]bool{}   // tables whose builds the word form skips
	rowReads := map[int32]int32{} // LocalRow register -> readers keeping only x > its variable
	// Table builds before S whose source lies in S move after the build.
	for pc := seg.Start + 1; pc < def; pc++ {
		if ins := &l.Code[pc]; ins.Op == IAuxBuild && within(ins.A, ins.WinLo, ins.WinHi, def) {
			r.moved = append(r.moved, pc)
			r.flag = append(r.flag, pc)
			skipped[ins.Dst] = true
		}
	}
	gain := false
	known := func(x int32) bool { return r.kind[x] != LocalNone }
	for pc := def + 1; pc < seg.End-1; pc++ {
		ins := &l.Code[pc]
		ok, word := true, false // word: a kernel the word form replaces
		switch ins.Op {
		case ILoopBegin:
			ok = within(ins.A, -1, -1, int32(pc)) && !sc.multi[ins.Dst]
			if ins.B >= 0 {
				// A guard reads a list whose emptiness the word form can tell.
				d, isDef := sc.defPC[ins.B]
				ok = ok && known(ins.B) && !(isDef && l.Code[d].Set == OpAuxRow)
			}
			bound[ins.Dst] = true
		case ILoopNext:
		case ISetDef:
			switch ins.Set {
			case OpNeighbors, OpAuxRow:
				// Read only through its variable's row: the word form skips it.
				if ok = bound[ins.V] && (ins.Set == OpNeighbors || skipped[ins.A]); ok {
					r.kind[ins.Dst], rowVar[ins.Dst] = LocalRow, ins.V
				}
			case OpIntersect:
				ok = known(ins.A) && known(ins.B) &&
					(within(ins.A, ins.WinLo, ins.WinHi, int32(pc)) || within(ins.B, ins.WinLo, ins.WinHi, int32(pc)))
				word = true
				for _, x := range []int32{ins.A, ins.B} {
					if _, isRow := rowVar[x]; isRow && ins.WinLo >= 0 && o.implies(ins.WinLo, rowVar[x], int32(pc), int32(pc), OpTrimBelow) {
						rowReads[x]++
					}
				}
			case OpSubtract:
				ok, word = within(ins.A, -1, -1, int32(pc)) && known(ins.B), true
			case OpRemove, OpCopy:
				ok = within(ins.A, -1, -1, int32(pc))
			case OpTrimBelow:
				ok = within(ins.A, ins.V, -1, int32(pc))
			case OpTrimAbove:
				ok = within(ins.A, -1, ins.V, int32(pc))
			default:
				ok = false
			}
			if ok && r.kind[ins.Dst] == LocalNone {
				r.kind[ins.Dst] = LocalMask
			}
		case IScalarDef:
			switch ins.SOp {
			case SSize:
				ok = within(ins.A, -1, -1, int32(pc))
			case SCountAbove:
				ok = within(ins.A, ins.V, -1, int32(pc))
			case SCountBelow:
				ok = within(ins.A, -1, ins.V, int32(pc))
			default:
				continue
			}
		case ICount:
			if ins.B < 0 {
				ok = within(ins.A, ins.V, ins.SA, int32(pc))
				break
			}
			ok = known(ins.A) && known(ins.B) &&
				(within(ins.A, ins.V, ins.SA, int32(pc)) || within(ins.B, ins.V, ins.SA, int32(pc)))
			word = true
			for _, x := range []int32{ins.A, ins.B} {
				if _, isRow := rowVar[x]; isRow && ins.V >= 0 && o.implies(ins.V, rowVar[x], int32(pc), int32(pc), OpTrimBelow) {
					rowReads[x]++
				}
			}
		case IAuxBuild:
			ok = within(ins.A, ins.WinLo, ins.WinHi, int32(pc))
			skipped[ins.Dst] = true
		default:
			continue // reads no set
		}
		if !ok {
			return nil
		}
		gain = gain || word && sc.depth[pc] >= localMinDepth
		r.flag = append(r.flag, int32(pc))
	}
	if !gain {
		return nil
	}
	// Rows: for the members the loops binding a row's variable can bind,
	// and only above each member when every read of every row keeps
	// only elements above the row's own vertex.
	var vars []int32
	upper := int64(1)
	var scratch []int32
	for x, v := range rowVar {
		if !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
		readers := 0
		for pc := def + 1; pc < seg.End-1; pc++ {
			if slices.Contains(setReads(&l.Code[pc], scratch[:0]), x) {
				readers++
			}
		}
		if readers != int(rowReads[x]) {
			upper = 0
		}
	}
	win := [2]int32{rowBound(o, vars, bound, def, o.above), rowBound(o, vars, bound, def, o.below)}
	for side, op := range [2]SetOp{OpTrimBelow, OpTrimAbove} {
		// S's own trim may already keep every member inside the bound.
		if win[side] >= 0 && sdef.Set == op && o.implies(sdef.V, win[side], def, def, op) {
			win[side] = -1
		}
	}
	r.build = Instr{Op: ILocalBuild, Dst: -1, A: s, B: -1, V: seg.Var, SA: -1, SB: -1, NbrA: -1, NbrB: -1,
		WinLo: win[0], WinHi: win[1], Imm: upper}
	return r
}

// rowBound returns the tightest variable bound outside the region, fixed
// where the build at pc reads it, that every variable of vars lies
// beyond under rel (trimOrder.above or below), or -1.
func rowBound(o *trimOrder, vars []int32, bound map[int32]bool, pc int32, rel map[int32][]int32) int32 {
	best := int32(-1)
	if len(vars) == 0 {
		return best
	}
	for j := range int32(o.sc.l.Prog.NumVars) {
		if bound[j] || !o.fixed(j, pc, pc) {
			continue
		}
		ok := true
		for _, v := range vars {
			ok = ok && o.beyond(v, j, rel)
		}
		if ok && (best < 0 || o.beyond(j, best, rel)) {
			best = j
		}
	}
	return best
}
