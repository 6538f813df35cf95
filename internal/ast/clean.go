package ast

// The bytecode clean-up pass: the last step of LowerWith. Decomposition
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
// round applies six rules and compacts once; when a round changes
// nothing, count fusion (lower.go's fuseCounts) runs again over the
// cleaned code, and rounds resume until neither changes anything.
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
//     only values above vj, and the relation is transitive. Rule 5 then
//     deletes the trims nothing reads, and re-fusion can absorb the
//     intersection the count now reads directly. For K6 the innermost
//     body goes from `N(v4)`, `s16 ∩ N(v4)`, four trims, a windowed
//     count, `global.add`, `loop.next` to `N(v4)`,
//     `|s16 ∩ N(v4) : x > v4|`, `global.add`, `loop.next`.
//
// A straight-line block is a maximal run of instructions entered only
// at its first one, together with the control instruction ending it
// (loop.begin, loop.next or cond.skip). A block that is entered runs to
// its end, which is what makes rules 2–4 sound: every execution of the
// later instruction follows an execution of the earlier one in the same
// pass over the block.
//
// Rule 6 walks every loop domain's def chain each round, so it runs only
// here, never in AuxDecisions, which the algorithm search runs for every
// candidate it ranks.
//
// The cost model still prices the deleted instructions, so profile-
// guided calibration needs to know how many of them the VM skipped: each
// deletion is charged to the innermost loop around it (ILoopBegin.Imm),
// and the VM multiplies the charge by the loop's iteration count. A
// deletion inside a conditional is charged as if the conditional were
// always taken; root-level deletions run once per query and are not
// charged.

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
	rel := o.above
	if op == OpTrimAbove {
		rel = o.below
	}
	return k == j || (o.fixed(k, pc, pc) && o.beyond(k, j, rel))
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
