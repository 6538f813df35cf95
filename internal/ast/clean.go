package ast

// The bytecode clean-up pass: the step of LowerWith before the
// local-region pass (local.go), which runs last. Decomposition
// plans reach the VM with scalar scaffolding the AST keeps on purpose —
// a volatile accumulator per subpattern count, one product and global
// update per shrinkage term, a conditional around each externalized
// quotient's (now empty) loop — and every leftover instruction costs a
// dispatch in the innermost loop. The paper's generated C++ leaves that
// clean-up to the host compiler (§7.4); this pass is the VM's stand-in.
//
// It rewrites the flat code, never the AST: the cost model prices every
// AST scalar node, so cleaning the tree would move plan costs and plan
// choice, while cleaning the bytecode changes only what executes. Each
// round applies rules 1–6 and compacts once; when a round changes
// nothing, count fusion (lower.go's fuseCounts) runs again over the
// cleaned code, and rounds resume until neither changes anything. Rules
// 7 and 8 then run once: neither deletes an instruction, so nothing is
// left for the others to do after them.
//
//  1. A cond.skip whose target is the next instruction goes.
//  2. Copy forwarding: `x := 0` and a single `x += 1*y` in one
//     straight-line block, x written nowhere else, and every other read
//     of x later in that block with y unchanged: the reads read y and
//     both instructions go.
//  3. A pure binary scalar def equal (operands in either order for * and
//     +) to an earlier one in the same block, with neither operand
//     written in between, merges into it: its readers read the earlier
//     register. Both registers must be written exactly once.
//  4. `g += a*x … g += b*x` in one block with x unchanged in between
//     folds into `g += (a+b)*x` (and goes when a+b is zero).
//  5. A set def, scalar def or fused count whose register nothing reads
//     goes.
//  6. A trim or count window made redundant by the restrictions reads
//     past the trim: `TrimBelow(TrimBelow(s, vj), vk)` reads `s` when
//     vk > vj is known, and so does a count `|TrimBelow(s, vj) : x > vk|`
//     (TrimAbove and `x < vk` symmetrically). The order comes from the
//     loop domains: a loop over a subset of `TrimBelow(·, vj)` binds
//     only values above vj, the relation is transitive, and it reads
//     both ways: vk > vj also when vj's domain lies in
//     `TrimAbove(·, vk)`. Rule 5 then
//     deletes the trims nothing reads, and re-fusion can absorb the
//     intersection the count now reads directly. For K6 the innermost
//     body goes from `N(v4)`, `s16 ∩ N(v4)`, four trims, a windowed
//     count, `global.add`, `loop.next` to `N(v4)`,
//     `|s16 ∩ N(v4) : x > v4|`, `global.add`, `loop.next`.
//  7. An excluded key vk of a fused count is decided statically where
//     the code proves whether vk is in the counted set: `|N(v1) − {v0}|`
//     with v1 drawn from N(v0) is `|N(v1)| − 1`, because adjacency is
//     symmetric, and `|N(v1) − {v1}|` is `|N(v1)|`, because there are no
//     self-loops. A key never in the set goes; a key always in it, and
//     provably distinct from every other key, becomes part of the
//     constant ICount.Imm the VM subtracts. Any other key stays for the
//     runtime membership test and dedup. The facts: vk is in every
//     superset of its own loop domain; vk ∉ N(vk); vk ∈ N(vj) when either
//     variable's domain lies in the other's neighbor set; ∩, −, Remove
//     and trims combine the facts of their operands, trims and count
//     windows through rule 6's order. They hold only for a vk bound by
//     one loop enclosing the count.
//  8. A loop at depth ≥ 1 whose straight-line body only defines
//     registers and adds to globals, where every added value is a
//     product with a count factor over one set s defined before the
//     loop, is guarded on s (ILoopBegin.B): when s is empty every
//     product is zero, and the VM skips the loop. A guard that is a
//     superset of the loop's domain would never fire and is not set.
//     The census 5-cycle skip plan's innermost loop is guarded on
//     N(v1) ∩ N(v0), which is empty for most (v0, v1) pairs.
//
//  9. An intersection whose every reader reads it through a bound is
//     windowed (ISetDef.WinLo/WinHi): the VM cuts both operands to the
//     window before the merge, so K6's
//     s4 = N(v0) ∩ N(v1) merges N(v0) ∩ {x > v1} with N⁺(v1), the
//     oriented list N(v1) ∩ {x > v1}, which the graph slices in O(1).
//     Readers that bound are trims, windowed intersections, windowed
//     table builds and counts with a window (fused counts' V/SA,
//     SCountAbove/SCountBelow); any other reader (a loop, a guard, a
//     subtraction, a label filter) reads the set whole and rules the
//     window out. The window is the tightest variable bound, fixed from the
//     definition through every reader, that each reader's own bounds
//     imply under rule 6's order. A trim passes on its readers' windows
//     along with its own bound, so TrimAbove(TrimBelow(s, v1), v2)
//     gives s both windows. A trim whose operand's window already
//     implies it is an identity: its readers read the operand, and rule
//     5 deletes it. A table build (IAuxBuild) is windowed the same way
//     over the readers of all its rows, provided every row's key lies
//     strictly inside the window: its keys and rows then hold only
//     window elements, and every lookup still hits. A windowed
//     intersection counts as a trim for the order (trimOrder): a loop
//     over it binds
//     only values inside its window. An operand whose own window,
//     trim or table window already implies a bound of a windowed
//     intersection or count is not cut there (Instr.Flags' Uncut bits):
//     K5's `s9 = s4 ∩ s21 : x > v1 : x < v2` reads s4, itself windowed
//     `x > v1`, without a Seek above v1. Rule 9 runs once, after the
//     rest reach their fixpoint, and only in LowerWith and LowerListForm
//     (LowerWith without local regions, the stream the window tests
//     compare): LowerUnwindowed is the stream without it, since windows
//     change kernel work, and can move a dispatch between merge and
//     gallop, by design.
//
// A straight-line block is a maximal run of instructions entered only
// at its first one, together with the control instruction ending it
// (loop.begin, loop.next or cond.skip). A block that is entered runs to
// its end, which is what makes rules 2–4 sound: every execution of the
// later instruction follows an execution of the earlier one in the same
// pass over the block.
//
// Rules 6–9 walk def chains, so they run only here, never in
// AuxDecisions, which the algorithm search runs for every candidate
// that can still win.
//
// The cost model still prices the deleted instructions, so comparing a
// run against its estimate needs to know how many of them the VM
// skipped: each deletion is charged to the innermost loop around it
// (ILoopBegin.Imm), and the VM multiplies the charge by the loop's
// iteration count. A deletion inside a conditional is charged as if the
// conditional were always taken; root-level deletions run once per
// query and are not charged. A loop its guard skips is charged its body
// length plus Imm per element.

import "slices"

// clean runs the clean-up pass and count re-fusion to a fixpoint.
func (l *Lowered) clean() {
	for {
		keep := make([]bool, len(l.Code))
		for i := range keep {
			keep[i] = true
		}
		block := l.blocks()
		changed := l.redirectTrims()
		changed = l.dropEmptySkips(keep) || changed
		changed = l.forwardCopies(keep, block) || changed
		changed = l.mergeScalarDefs(keep, block) || changed
		changed = l.foldGlobalAdds(keep, block) || changed
		changed = l.dropDeadDefs(keep) || changed
		if !changed {
			if keep, changed = l.fuseCounts(); !changed {
				o := newTrimOrder(newAuxScan(l))
				l.resolveExclusions(o)
				l.guardLoops(o.sc)
				l.annotateNeighborOperands()
				return
			}
		}
		l.chargeDeleted(keep)
		l.compact(keep)
	}
}

// chargeDeleted adds each instruction about to be deleted to the
// ILoopBegin.Imm of the innermost loop enclosing it.
func (l *Lowered) chargeDeleted(keep []bool) {
	var loops []int
	for i := range l.Code {
		switch l.Code[i].Op {
		case ILoopBegin:
			loops = append(loops, i)
		case ILoopNext:
			loops = loops[:len(loops)-1]
		default:
			if !keep[i] && len(loops) > 0 {
				l.Code[loops[len(loops)-1]].Imm++
			}
		}
	}
}

// blocks numbers the straight-line blocks: block[i] is the block of
// instruction i. A block starts after every control instruction and at
// every cond.skip target; loop entries and exits always follow a
// control instruction.
func (l *Lowered) blocks() []int32 {
	leader := make([]bool, len(l.Code)+1)
	for i := range l.Code {
		switch ins := &l.Code[i]; ins.Op {
		case ICondSkip:
			leader[ins.Off] = true
			fallthrough
		case ILoopBegin, ILoopNext:
			leader[i+1] = true
		}
	}
	block := make([]int32, len(l.Code))
	b := int32(0)
	for i := range l.Code {
		if leader[i] {
			b++
		}
		block[i] = b
	}
	return block
}

// scalarReads appends the scalar registers instruction ins reads to dst.
// An accumulation's read of its own destination is not listed: it is a
// write for the purposes of this pass.
func scalarReads(ins *Instr, dst []int32) []int32 {
	switch ins.Op {
	case IScalarDef:
		switch ins.SOp {
		case SMul, SDiv, SSub, SAdd:
			return append(dst, ins.SA, ins.SB)
		}
	case IScalarAccum, IGlobalAdd, ICondSkip, IEmit:
		return append(dst, ins.SA)
	}
	return dst
}

// scalarWrite returns the scalar register instruction ins writes.
func scalarWrite(ins *Instr) (int32, bool) {
	switch ins.Op {
	case IScalarDef, IScalarReset, IScalarAccum, IHashGet, ICount:
		return ins.Dst, true
	}
	return 0, false
}

// writes reports whether instruction ins writes scalar register r.
func writes(ins *Instr, r int32) bool {
	w, ok := scalarWrite(ins)
	return ok && w == r
}

// renameScalarReads makes instruction ins read scalar register to
// wherever it reads from.
func renameScalarReads(ins *Instr, from, to int32) {
	switch ins.Op {
	case IScalarDef:
		switch ins.SOp {
		case SMul, SDiv, SSub, SAdd:
			if ins.SB == from {
				ins.SB = to
			}
		default:
			return
		}
		fallthrough
	case IScalarAccum, IGlobalAdd, ICondSkip, IEmit:
		if ins.SA == from {
			ins.SA = to
		}
	}
}

// scalarUse counts, over the live instructions, how often each scalar
// register is read and written.
func (l *Lowered) scalarUse(keep []bool) (reads, wrote map[int32]int) {
	reads, wrote = map[int32]int{}, map[int32]int{}
	var scratch []int32
	for i := range l.Code {
		if !keep[i] {
			continue
		}
		scratch = scalarReads(&l.Code[i], scratch[:0])
		for _, r := range scratch {
			reads[r]++
		}
		if w, ok := scalarWrite(&l.Code[i]); ok {
			wrote[w]++
		}
	}
	return reads, wrote
}

// dropEmptySkips applies rule 1.
func (l *Lowered) dropEmptySkips(keep []bool) bool {
	changed := false
	for i := range l.Code {
		if ins := &l.Code[i]; ins.Op == ICondSkip && ins.Off == int32(i)+1 {
			keep[i] = false
			changed = true
		}
	}
	return changed
}

// forwardCopies applies rule 2.
func (l *Lowered) forwardCopies(keep []bool, block []int32) bool {
	changed := false
	reads, nwrites := l.scalarUse(keep)
	var scratch []int32
	for i := range l.Code {
		reset := &l.Code[i]
		if !keep[i] || reset.Op != IScalarReset || reset.Imm != 0 || nwrites[reset.Dst] != 2 {
			continue
		}
		x := reset.Dst
		// The other write must be `x += 1*y` later in the block.
		j := i + 1
		for j < len(l.Code) && block[j] == block[i] && !(keep[j] && writes(&l.Code[j], x)) {
			j++
		}
		if j == len(l.Code) || block[j] != block[i] {
			continue
		}
		acc := &l.Code[j]
		if acc.Op != IScalarAccum || acc.Imm != 1 || acc.SA == x {
			continue
		}
		y := acc.SA
		// Every read of x must follow the accumulation in the block while
		// y still holds the value x copied (so none sees the 0 before it).
		var uses []int
		yChanged := false
		for k := j + 1; k < len(l.Code) && block[k] == block[i] && !yChanged; k++ {
			if !keep[k] {
				continue
			}
			if scratch = scalarReads(&l.Code[k], scratch[:0]); slices.Contains(scratch, x) {
				uses = append(uses, k)
			}
			yChanged = writes(&l.Code[k], y)
		}
		if len(uses) != reads[x] {
			continue
		}
		for _, k := range uses {
			renameScalarReads(&l.Code[k], x, y)
		}
		keep[i], keep[j] = false, false
		changed = true
		reads, nwrites = l.scalarUse(keep)
	}
	return changed
}

// mergeScalarDefs applies rule 3.
func (l *Lowered) mergeScalarDefs(keep []bool, block []int32) bool {
	changed := false
	_, nwrites := l.scalarUse(keep)
	for j := range l.Code {
		d := &l.Code[j]
		if !keep[j] || d.Op != IScalarDef || nwrites[d.Dst] != 1 {
			continue
		}
		switch d.SOp {
		case SMul, SDiv, SSub, SAdd:
		default:
			continue
		}
		commutes := d.SOp == SMul || d.SOp == SAdd
		for i := j - 1; i >= 0 && block[i] == block[j]; i-- {
			e := &l.Code[i]
			if !keep[i] {
				continue
			}
			if writes(e, d.SA) || writes(e, d.SB) {
				break
			}
			if e.Op == IScalarDef && e.SOp == d.SOp && nwrites[e.Dst] == 1 &&
				((e.SA == d.SA && e.SB == d.SB) || (commutes && e.SA == d.SB && e.SB == d.SA)) {
				for k := range l.Code {
					if keep[k] {
						renameScalarReads(&l.Code[k], d.Dst, e.Dst)
					}
				}
				keep[j] = false
				changed = true
				break
			}
		}
	}
	return changed
}

// foldGlobalAdds applies rule 4.
func (l *Lowered) foldGlobalAdds(keep []bool, block []int32) bool {
	changed := false
	for j := range l.Code {
		d := &l.Code[j]
		if !keep[j] || d.Op != IGlobalAdd {
			continue
		}
		for i := j - 1; i >= 0 && block[i] == block[j]; i-- {
			e := &l.Code[i]
			if !keep[i] {
				continue
			}
			if writes(e, d.SA) {
				break
			}
			if e.Op == IGlobalAdd && e.Dst == d.Dst && e.SA == d.SA {
				e.Imm += d.Imm
				keep[j] = false
				keep[i] = e.Imm != 0
				changed = true
				break
			}
		}
	}
	return changed
}

// dropDeadDefs applies rule 5.
func (l *Lowered) dropDeadDefs(keep []bool) bool {
	setRead := map[int32]bool{}
	scalarRead := map[int32]bool{}
	var scratch []int32
	for i := range l.Code {
		if !keep[i] {
			continue
		}
		for _, r := range setReads(&l.Code[i], scratch[:0]) {
			setRead[r] = true
		}
		for _, r := range scalarReads(&l.Code[i], scratch[:0]) {
			scalarRead[r] = true
		}
	}
	changed := false
	for i := range l.Code {
		ins := &l.Code[i]
		if !keep[i] {
			continue
		}
		dead := false
		switch ins.Op {
		case ISetDef:
			dead = !setRead[ins.Dst]
		case IScalarDef, ICount:
			dead = !scalarRead[ins.Dst]
		}
		if dead {
			keep[i] = false
			changed = true
		}
	}
	return changed
}

// redirectTrims applies rule 6. It only renames set operands; rule 5
// deletes what that leaves unread.
func (l *Lowered) redirectTrims() bool {
	sc := newAuxScan(l)
	o := newTrimOrder(sc)
	// past follows r while its def is an op trim whose bound the bound k
	// read at pc implies.
	past := func(r, k, pc int32, op SetOp) int32 {
		for {
			d, ok := sc.defPC[r]
			if !ok || sc.code[d].Set != op || !o.implies(k, sc.code[d].V, pc, d, op) {
				return r
			}
			r = sc.code[d].A
		}
	}
	changed := false
	for pc := range sc.code {
		ins := &sc.code[pc]
		p := int32(pc)
		a := ins.A
		switch {
		case ins.Op == ISetDef && (ins.Set == OpTrimBelow || ins.Set == OpTrimAbove):
			a = past(a, ins.V, p, ins.Set)
		case ins.Op == IScalarDef && ins.SOp == SCountAbove:
			a = past(a, ins.V, p, OpTrimBelow)
		case ins.Op == IScalarDef && ins.SOp == SCountBelow:
			a = past(a, ins.V, p, OpTrimAbove)
		case ins.Op == ICount:
			// Both windows may apply to interleaved trims.
			for prev := int32(-1); prev != a; {
				prev = a
				if ins.V >= 0 {
					a = past(a, ins.V, p, OpTrimBelow)
				}
				if ins.SA >= 0 {
					a = past(a, ins.SA, p, OpTrimAbove)
				}
			}
		}
		if a != ins.A {
			ins.A = a
			changed = true
		}
	}
	return changed
}

// windowIntersections applies rule 9 and returns the windowed code's
// trim order, which the local-region pass reads too.
func (l *Lowered) windowIntersections() *trimOrder {
	sc := newAuxScan(l)
	o := newTrimOrder(sc)
	readers := map[int32][]int32{} // set register -> pcs reading it
	var scratch []int32
	for pc := range l.Code {
		for _, r := range setReads(&l.Code[pc], scratch[:0]) {
			readers[r] = append(readers[r], int32(pc))
		}
	}
	// win[r] is the window of trim or intersection r: what its readers
	// read of it, as {lower, upper} bound variables or -1.
	win := map[int32][2]int32{}
	// bounds lists the variables the reader at pc q keeps the elements
	// it reads above (side 0) or below (side 1).
	bounds := func(q int32, side int) []int32 {
		var out []int32
		switch ins := &l.Code[q]; {
		case windowable(ins) || ins.Op == ISetDef && (ins.Set == OpTrimBelow || ins.Set == OpTrimAbove):
			if w, ok := win[ins.Dst]; ok && w[side] >= 0 {
				out = append(out, w[side])
			}
			if ins.Set == [2]SetOp{OpTrimBelow, OpTrimAbove}[side] {
				out = append(out, ins.V)
			}
		case ins.Op == ICount:
			if k := [2]int32{ins.V, ins.SA}[side]; k >= 0 {
				out = append(out, k)
			}
		case ins.Op == IAuxBuild:
			if k := [2]int32{ins.WinLo, ins.WinHi}[side]; k >= 0 {
				out = append(out, k)
			}
		case ins.Op == IScalarDef && (ins.SOp == SCountAbove && side == 0 || ins.SOp == SCountBelow && side == 1):
			out = append(out, ins.V)
		}
		return out
	}
	// A read is one reader's bounds on a set it reads (at pc).
	type read struct {
		pc     int32
		bounds []int32
	}
	// reads appends the reads of register r to rs; false when some
	// reader reads r whole.
	reads := func(rs []read, r int32, side int) ([]read, bool) {
		for _, q := range readers[r] {
			b := bounds(q, side)
			if len(b) == 0 {
				return rs, false
			}
			rs = append(rs, read{q, b})
		}
		return rs, true
	}
	// choose returns the tightest variable bound, read at d, that every
	// read's bounds imply and that each key variable (read where its
	// row is looked up) lies strictly beyond, or -1.
	choose := func(d int32, rs, keys []read, side int) int32 {
		op, rel := OpTrimBelow, o.above
		if side == 1 {
			op, rel = OpTrimAbove, o.below
		}
		best := int32(-1)
		for j := range int32(l.Prog.NumVars) {
			ok := len(rs) > 0
			for _, x := range rs {
				ok = ok && slices.ContainsFunc(x.bounds, func(k int32) bool { return o.implies(k, j, x.pc, d, op) })
			}
			for _, x := range keys {
				ok = ok && x.bounds[0] != j && o.implies(x.bounds[0], j, x.pc, d, op)
			}
			if ok && (best < 0 || o.beyond(j, best, rel)) {
				best = j
			}
		}
		return best
	}
	// Readers follow their operands' defs, so one backward pass sees
	// every reader's window before the set it reads. An auxiliary table
	// build reads its source through the window of every row's readers,
	// and only when each row's key lies inside that window, so that the
	// windowed keys still hold it.
	for pc := len(l.Code) - 1; pc >= 0; pc-- {
		ins := &l.Code[pc]
		d := int32(pc)
		var w [2]int32
		switch {
		case windowable(ins) || ins.Op == ISetDef && (ins.Set == OpTrimBelow || ins.Set == OpTrimAbove):
			for side := range w {
				rs, ok := reads(nil, ins.Dst, side)
				w[side] = -1
				if ok {
					w[side] = choose(d, rs, nil, side)
				}
			}
			win[ins.Dst] = w
		case ins.Op == IAuxBuild:
			for side := range w {
				var rs, keys []read
				ok := true
				for q := range l.Code {
					if row := &l.Code[q]; ok && row.Op == ISetDef && row.Set == OpAuxRow && row.A == ins.Dst {
						rs, ok = reads(rs, row.Dst, side)
						keys = append(keys, read{int32(q), []int32{row.V}})
					}
				}
				w[side] = -1
				if ok {
					w[side] = choose(d, rs, keys, side)
				}
			}
		default:
			continue
		}
		if ins.Op == IAuxBuild || windowable(ins) {
			ins.WinLo, ins.WinHi = w[0], w[1]
		}
	}
	// A trim its operand's window implies reads past itself. Renaming
	// in program order lets a trim of a trim reach the intersection.
	to := map[int32]int32{}
	var operands []*int32
	for pc := range l.Code {
		ins := &l.Code[pc]
		for _, r := range setOperands(ins, operands[:0]) {
			if x, ok := to[*r]; ok {
				*r = x
			}
		}
		if ins.Op != ISetDef || ins.Set != OpTrimBelow && ins.Set != OpTrimAbove {
			continue
		}
		d, ok := sc.defPC[ins.A]
		if !ok || !windowable(&l.Code[d]) {
			continue
		}
		w := l.Code[d].WinLo
		if ins.Set == OpTrimAbove {
			w = l.Code[d].WinHi
		}
		if p := int32(pc); w >= 0 && o.fixed(w, d, p) && o.implies(w, ins.V, p, p, ins.Set) {
			to[ins.Dst] = ins.A
		}
	}
	for i := range l.Segments {
		if r, ok := to[l.Segments[i].Over]; ok {
			l.Segments[i].Over = r
		}
	}
	for i := range l.Aux {
		if r, ok := to[l.Aux[i].Src]; ok {
			l.Aux[i].Src = r
		}
	}
	for {
		keep := make([]bool, len(l.Code))
		for i := range keep {
			keep[i] = true
		}
		if !l.dropDeadDefs(keep) {
			break
		}
		l.chargeDeleted(keep)
		l.compact(keep)
	}
	return l.markUncut()
}

// markUncut sets the Uncut bits of rule 9: on each windowed
// intersection and windowed count, the operands whose own bounds
// already imply a bound of the window. It returns the trim order it
// read.
func (l *Lowered) markUncut() *trimOrder {
	sc := newAuxScan(l)
	o := newTrimOrder(sc)
	builds := map[int32]int32{} // aux table -> its build's pc
	for pc := range l.Code {
		if l.Code[pc].Op == IAuxBuild {
			builds[l.Code[pc].Dst] = int32(pc)
		}
	}
	// own returns operand x's bound on side (0: lower, 1: upper) and the
	// pc that reads it, or -1.
	own := func(x int32, side int) (int32, int32) {
		d, ok := sc.defPC[x]
		if !ok {
			return -1, -1
		}
		def := &l.Code[d]
		switch {
		case windowable(def):
			return [2]int32{def.WinLo, def.WinHi}[side], d
		case def.Set == [2]SetOp{OpTrimBelow, OpTrimAbove}[side]:
			return def.V, d
		case def.Set == OpAuxRow:
			if b, ok := builds[def.A]; ok {
				return [2]int32{l.Code[b].WinLo, l.Code[b].WinHi}[side], b
			}
		}
		return -1, -1
	}
	bits := [2][2]uint8{{UncutLoA, UncutHiA}, {UncutLoB, UncutHiB}}
	for pc := range l.Code {
		ins := &l.Code[pc]
		var win [2]int32
		switch {
		case windowable(ins):
			win = [2]int32{ins.WinLo, ins.WinHi}
		case ins.Op == ICount:
			win = [2]int32{ins.V, ins.SA}
		default:
			continue
		}
		p := int32(pc)
		for i, x := range [2]int32{ins.A, ins.B} {
			for side, op := range [2]SetOp{OpTrimBelow, OpTrimAbove} {
				if x < 0 || win[side] < 0 {
					continue
				}
				if b, d := own(x, side); b >= 0 && o.fixed(b, d, p) && o.implies(b, win[side], p, p, op) {
					ins.Flags |= bits[i][side]
				}
			}
		}
	}
	return o
}

// windowable reports whether rule 9 may window set def ins: an
// intersection. A subtraction could be windowed the same way, but on
// no ledger workload did that change a kernel element.
func windowable(ins *Instr) bool {
	return ins.Op == ISetDef && ins.Set == OpIntersect
}

// trimOrder is the order between vertex variables that the loop domains
// imply: above[k] lists every j with vk > vj throughout vk's loop body
// (the domain is a subset of TrimBelow(·, vj)), below[k] every j with
// vk < vj (TrimAbove). Each j's binding loop encloses vk's, so the
// relations chain: vk > vm throughout vk's loop and vm > vj throughout
// vm's, which contains it.
type trimOrder struct {
	sc           *auxScan
	above, below map[int32][]int32
}

func newTrimOrder(sc *auxScan) *trimOrder {
	o := &trimOrder{sc: sc, above: map[int32][]int32{}, below: map[int32][]int32{}}
	for begin, k := range sc.loopVar {
		if sc.multi[k] {
			continue
		}
		for _, r := range sc.supersets(sc.loopOver[begin]) {
			t, ok := sc.defPC[r]
			if !ok {
				continue
			}
			switch tr := &sc.code[t]; {
			case tr.Set == OpTrimBelow && o.fixed(tr.V, t, begin):
				o.above[k] = append(o.above[k], tr.V)
			case tr.Set == OpTrimAbove && o.fixed(tr.V, t, begin):
				o.below[k] = append(o.below[k], tr.V)
			case windowable(tr):
				// A windowed intersection is a trim by each bound.
				if tr.WinLo >= 0 && o.fixed(tr.WinLo, t, begin) {
					o.above[k] = append(o.above[k], tr.WinLo)
				}
				if tr.WinHi >= 0 && o.fixed(tr.WinHi, t, begin) {
					o.below[k] = append(o.below[k], tr.WinHi)
				}
			}
		}
	}
	return o
}

// fixed reports whether variable v holds one value from instruction
// from through instruction to: it is bound by no loop (a pin, constant
// for the run) or by one loop enclosing both.
func (o *trimOrder) fixed(v, from, to int32) bool {
	if o.sc.multi[v] {
		return false
	}
	lv, ok := o.sc.varLoop[v]
	return !ok || (o.sc.inScopeAt(lv, from) && o.sc.inScopeAt(lv, to))
}

// implies reports whether the op trim by vk read at instruction pc makes
// the earlier op trim by vj at instruction d redundant: vk >= vj
// (TrimBelow) or vk <= vj (TrimAbove) with both values as they are at pc.
func (o *trimOrder) implies(k, j, pc, d int32, op SetOp) bool {
	if !o.fixed(j, d, pc) {
		return false
	}
	rel, inv := o.above, o.below
	if op == OpTrimAbove {
		rel, inv = o.below, o.above
	}
	return k == j || (o.fixed(k, pc, pc) && (o.beyond(k, j, rel) || o.beyond(j, k, inv)))
}

// beyond reports whether rel, closed transitively, relates k to j.
func (o *trimOrder) beyond(k, j int32, rel map[int32][]int32) bool {
	for _, m := range rel[k] {
		if m == j || o.beyond(m, j, rel) {
			return true
		}
	}
	return false
}

// verdict is rule 7's answer to whether a variable's value is a member of
// a set.
type verdict int8

const (
	unknown verdict = iota
	always
	never
)

// and is the verdict for membership in both sets.
func (v verdict) and(w verdict) verdict {
	switch {
	case v == never || w == never:
		return never
	case v == always && w == always:
		return always
	}
	return unknown
}

// not is the verdict for membership in the complement.
func (v verdict) not() verdict {
	switch v {
	case always:
		return never
	case never:
		return always
	}
	return unknown
}

// membership holds rule 7's analysis at one fused count: every variable
// and register is taken as it is at instruction pc.
type membership struct {
	o    *trimOrder
	pc   int32
	memo map[[2]int32]verdict // (variable, register) -> verdict at pc
	doms map[int32][]int32    // loop begin -> supersets of its domain
}

// bound returns the loop binding variable k when k is bound by exactly
// one loop and that loop encloses the count.
func (m *membership) bound(k int32) (int32, bool) {
	sc := m.o.sc
	lk, ok := sc.varLoop[k]
	return lk, ok && !sc.multi[k] && sc.inScopeAt(lk, m.pc)
}

// domain returns every register the domain of the loop beginning at lk
// is statically a subset of. Each is defined before the loop, so it
// holds, anywhere in the loop, the value the domain was computed from.
func (m *membership) domain(lk int32) []int32 {
	d, ok := m.doms[lk]
	if !ok {
		d = m.o.sc.supersets(m.o.sc.loopOver[lk])
		m.doms[lk] = d
	}
	return d
}

// in decides whether variable k is a member of register r.
func (m *membership) in(k, r int32) verdict {
	key := [2]int32{k, r}
	if v, ok := m.memo[key]; ok {
		return v
	}
	m.memo[key] = unknown // a cyclic argument proves nothing
	v := m.decide(k, r)
	m.memo[key] = v
	return v
}

func (m *membership) decide(k, r int32) verdict {
	lk, ok := m.bound(k)
	if !ok {
		return unknown
	}
	if slices.Contains(m.domain(lk), r) {
		return always
	}
	sc := m.o.sc
	d, ok := sc.defPC[r]
	if !ok {
		return unknown
	}
	def := &sc.code[d]
	switch def.Set {
	case OpAll:
		return always
	case OpNeighbors:
		switch j := def.V; {
		case !m.o.fixed(j, d, m.pc):
		case j == k:
			return never // no self-loops
		case m.adjacent(k, j):
			return always
		}
	case OpIntersect:
		return m.in(k, def.A).and(m.in(k, def.B))
	case OpSubtract:
		return m.in(k, def.A).and(m.in(k, def.B).not())
	case OpRemove:
		switch j := def.V; {
		case !m.o.fixed(j, d, m.pc):
		case j == k:
			return never
		case m.distinct(k, j):
			return m.in(k, def.A)
		}
		return m.in(k, def.A).and(unknown)
	case OpTrimBelow, OpTrimAbove:
		return m.in(k, def.A).and(m.order(k, def.V, d, def.Set))
	case OpCopy:
		return m.in(k, def.A)
	case OpFilterLabel, OpFilterLabelOfVar, OpFilterLabelNotOfVar:
		return m.in(k, def.A).and(unknown)
	}
	return unknown
}

// order decides whether vk passes the window of an op trim (vk > vj for
// TrimBelow, vk < vj for TrimAbove) whose bound vj was read at
// instruction at.
func (m *membership) order(k, j, at int32, op SetOp) verdict {
	if !m.o.fixed(j, at, m.pc) {
		return unknown
	}
	if j == k {
		return never
	}
	lo, hi := j, k
	if op == OpTrimAbove {
		lo, hi = k, j
	}
	switch {
	case m.less(lo, hi):
		return always
	case m.less(hi, lo):
		return never
	}
	return unknown
}

// less reports whether va < vb follows from the loop domains' trims.
// Both variables must hold one value from their binding through pc.
func (m *membership) less(a, b int32) bool {
	o := m.o
	return o.beyond(a, b, o.below) || o.beyond(b, a, o.above)
}

// adjacent reports whether vk ∈ N(vj) because one variable's loop domain
// lies in the other's neighbor set: adjacency is symmetric.
func (m *membership) adjacent(k, j int32) bool {
	return m.domainInNeighbors(k, j) || m.domainInNeighbors(j, k)
}

// domainInNeighbors reports whether va's loop domain lies in N(vb) for
// vb as it is at pc.
func (m *membership) domainInNeighbors(a, b int32) bool {
	la, ok := m.bound(a)
	if !ok {
		return false
	}
	sc := m.o.sc
	for _, r := range m.domain(la) {
		if d, ok := sc.defPC[r]; ok && sc.code[d].Set == OpNeighbors && sc.code[d].V == b && m.o.fixed(b, d, m.pc) {
			return true
		}
	}
	return false
}

// distinct reports whether va ≠ vb provably: the trims order them, or
// one lies outside the other's loop domain.
func (m *membership) distinct(a, b int32) bool {
	o := m.o
	if a == b {
		return false
	}
	if o.fixed(a, m.pc, m.pc) && o.fixed(b, m.pc, m.pc) && (m.less(a, b) || m.less(b, a)) {
		return true
	}
	la, aOK := m.bound(a)
	lb, bOK := m.bound(b)
	return aOK && m.in(b, o.sc.loopOver[la]) == never || bOK && m.in(a, o.sc.loopOver[lb]) == never
}

// resolveExclusions applies rule 7.
func (l *Lowered) resolveExclusions(o *trimOrder) {
	m := &membership{o: o, memo: map[[2]int32]verdict{}, doms: map[int32][]int32{}}
	for pc := range l.Code {
		ins := &l.Code[pc]
		if ins.Op != ICount || ins.NKeys == 0 {
			continue
		}
		m.pc = int32(pc)
		clear(m.memo)
		keys := l.KeyVars(ins)
		in := make([]verdict, len(keys))
		for i, k := range keys {
			v := m.in(k, ins.A)
			if ins.B >= 0 {
				v = v.and(m.in(k, ins.B))
			}
			if ins.V >= 0 {
				v = v.and(m.order(k, ins.V, m.pc, OpTrimBelow))
			}
			if ins.SA >= 0 {
				v = v.and(m.order(k, ins.SA, m.pc, OpTrimAbove))
			}
			in[i] = v
		}
		var runtime []int32
		imm := ins.Imm
		for i, k := range keys {
			if in[i] == never {
				continue
			}
			// A member counts once however many keys hold it, so only a
			// key distinct from every other candidate member is constant.
			lone := in[i] == always
			for j, kj := range keys {
				if lone && j != i && in[j] != never && !m.distinct(k, kj) {
					lone = false
				}
			}
			if lone {
				imm++
			} else {
				runtime = append(runtime, k)
			}
		}
		if len(runtime) < len(keys) {
			ins.Imm = imm
			ins.Key, ins.NKeys = poolKeys32(l, runtime)
		}
	}
}

// guardLoops applies rule 8.
func (l *Lowered) guardLoops(sc *auxScan) {
	for b := range l.Code {
		if l.Code[b].Op == ILoopBegin && sc.depth[b] > 0 {
			l.Code[b].B = l.guardSet(sc, int32(b))
		}
	}
}

// guardSet returns the set rule 8 guards the loop beginning at b on, or
// -1 when there is none.
func (l *Lowered) guardSet(sc *auxScan, b int32) int32 {
	next := l.Code[b].Off - 1
	defs := map[int32]bool{}    // set registers the body defines
	scalar := map[int32]int32{} // scalar register -> its def in the body
	var adds []int32            // pcs of the body's global.adds
	for pc := b + 1; pc < next; pc++ {
		switch ins := &l.Code[pc]; ins.Op {
		case ISetDef:
			defs[ins.Dst] = true
		case IScalarDef, ICount:
			if _, dup := scalar[ins.Dst]; dup {
				return -1
			}
			scalar[ins.Dst] = pc
		case IGlobalAdd:
			adds = append(adds, pc)
		default:
			return -1 // a conditional, accumulation, hash op, emit or loop
		}
	}
	if len(adds) == 0 {
		return -1
	}
	// A skipped loop defines nothing, so nothing else may read or write
	// what the body defines.
	var scratch []int32
	for pc := range l.Code {
		if int32(pc) > b && int32(pc) < next {
			continue
		}
		ins := &l.Code[pc]
		for _, r := range setReads(ins, scratch[:0]) {
			if defs[r] {
				return -1
			}
		}
		scratch = scalarReads(ins, scratch[:0])
		if w, ok := scalarWrite(ins); ok {
			scratch = append(scratch, w)
		}
		for _, r := range scratch {
			if _, ok := scalar[r]; ok {
				return -1
			}
		}
	}
	// zeroes returns the sets whose emptiness makes scalar x zero where
	// instruction at reads it: x is this iteration's count over the set,
	// or a product with such a factor.
	var zeroes func(x, at int32) []int32
	zeroes = func(x, at int32) []int32 {
		d, ok := scalar[x]
		if !ok || d > at {
			return nil
		}
		switch ins := &l.Code[d]; {
		case ins.Op == ICount && ins.Imm == 0 && ins.B >= 0:
			return []int32{ins.A, ins.B}
		case ins.Op == ICount && ins.Imm == 0,
			ins.Op == IScalarDef && (ins.SOp == SSize || ins.SOp == SCountAbove || ins.SOp == SCountBelow):
			return []int32{ins.A}
		case ins.Op == IScalarDef && ins.SOp == SMul:
			return append(zeroes(ins.SA, d), zeroes(ins.SB, d)...)
		}
		return nil
	}
	common := zeroes(l.Code[adds[0]].SA, adds[0])
	for _, pc := range adds[1:] {
		z := zeroes(l.Code[pc].SA, pc)
		common = slices.DeleteFunc(common, func(s int32) bool { return !slices.Contains(z, s) })
	}
	// The latest set defined before the loop is the most pruned.
	guard := int32(-1)
	domain := sc.supersets(l.Code[b].A)
	for _, s := range common {
		d, ok := sc.defPC[s]
		if ok && d < b && !slices.Contains(domain, s) && (guard < 0 || d > sc.defPC[guard]) {
			guard = s
		}
	}
	return guard
}
