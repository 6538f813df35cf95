package ast

// Auxiliary-graph materialization (GraphMini-style): a post-lowering
// pass that finds deep-loop intersections re-computing N(w) ∩ C where C
// is a loop-invariant pruned set defined at a shallower level, hoists
// one IAuxBuild instruction to C's definition level (building the table
// aux[v] = N(v) ∩ C for every v ∈ C), and rewrites the deep uses to
// read the pre-pruned rows through OpAuxRow alias registers. The
// rewrite is an identity on results — X ∩ N(w) = X ∩ (N(w) ∩ C)
// whenever X ⊆ C — so plans stay bit-identical with the pass on or off;
// only the work per deep iteration changes (rows are |N(w) ∩ C| long
// instead of deg(w)).
//
// Legality of rewriting the use "X ⋄ N(w)" against table aux over C:
//
//  1. X ⊆ C, established by the static subset chain of set defs
//     (intersect ⊆ both operands; subtract/remove/trim/filter/copy ⊆
//     their primary operand). Then intersecting with N(w)∩C instead of
//     N(w) removes nothing that X could contribute.
//  2. The iteration set of w's loop is ⊆ C, so the row for the current
//     w always exists in the table.
//  3. C's definition is in scope at the use: its enclosing loop is an
//     ancestor of the use's loop chain, so the snapshot the build took
//     is exactly the C value the use would read.
//  4. depth(w's loop body) ≥ depth(C's def) + 2: at least one loop sits
//     between the build and the w-loop, so every row is re-read across
//     ≥ 2 restarts of the w-loop and the build cost amortizes.
//  5. depth(C's def) ≥ 1: builds never run at the root — worker frames
//     re-derive loop-body state but do not inherit root aux tables.
//
// Each use picks the deepest legal C (the most-pruned rows); uses are
// grouped per C into one table, and a decision callback (the cost
// model's materialize-vs-recompute estimate) accepts or rejects each
// table; without one every table is rejected. Both outcomes are
// recorded on the Lowered form for Explain and the slow-query log.

import (
	"fmt"
	"strings"
)

// LowerOpts configures LowerWith.
type LowerOpts struct {
	// AuxDecide arbitrates materialize-vs-recompute per candidate table
	// (cost.AuxDecider wires the active cost model in). When nil no
	// table is materialized: the lowered form is the pre-pass output.
	AuxDecide func(*AuxCandidate) AuxVerdict
}

// AuxUse is one rewritable deep-loop operand of an auxiliary-table
// candidate: the instruction intersects (or count-intersects) OtherReg
// with N(NbrVar) inside LoopVar's loop at the given body depth.
type AuxUse struct {
	NbrVar   int32 // w: vertex variable whose neighbor set is replaced
	OtherReg int32 // X: the operand that stays
	LoopVar  int32 // loop variable binding w
	// EncLoopVar is the variable of the innermost loop containing the
	// use site — possibly deeper than LoopVar's loop (a fused count one
	// level below w's binding, say), in which case the use executes once
	// per iteration of that deeper loop. Cost arbitration prices the
	// use against this loop's total, not LoopVar's.
	EncLoopVar int32
	Depth      int32 // static loop depth of the use site
	Count      bool  // the use is a fused ICount

	pc      int32 // instruction index of the use (pre-insertion)
	operand byte  // 'A' or 'B': which operand reads the neighbor set
}

// AuxCandidate is one legal auxiliary table: rows N(v) ∩ C for every v
// of source register Src, built each time Src is (re)defined at depth
// SrcDepth inside BuildLoopVar's loop.
type AuxCandidate struct {
	Src          int32
	SrcDepth     int32
	BuildLoopVar int32
	Uses         []AuxUse
}

// AuxVerdict is a decision callback's answer: whether to materialize,
// plus the model's cost estimates.
type AuxVerdict struct {
	Materialize     bool
	MaterializeCost float64
	RecomputeCost   float64
}

// AuxDecision records the outcome for one candidate table — applied or
// rejected — for Explain and the slow-query log.
type AuxDecision struct {
	AuxCandidate
	Table           int32 // aux table index when applied, -1 otherwise
	Applied         bool
	MaterializeCost float64
	RecomputeCost   float64
}

// AuxTable describes one materialized table of the lowered program:
// IAuxBuild with Dst = the table index rebuilds it from register Src.
type AuxTable struct {
	Src int32
}

// AuxSummary renders the pass's decisions for Explain and the
// slow-query log: one line per candidate table — which operand was
// hoisted, to which loop level, and the cost model's
// materialize-vs-recompute estimate. Empty when the pass found no
// candidates or had no decision callback.
func (l *Lowered) AuxSummary() string {
	if len(l.AuxDecisions) == 0 {
		return ""
	}
	var b strings.Builder
	for _, d := range l.AuxDecisions {
		verdict := "recompute"
		if d.Applied {
			verdict = fmt.Sprintf("materialized a%d", d.Table)
		}
		fmt.Fprintf(&b, "aux rows N(v) ∩ s%d hoisted to v%d's loop (depth %d): %s",
			d.Src, d.BuildLoopVar, d.SrcDepth, verdict)
		if d.MaterializeCost > 0 || d.RecomputeCost > 0 {
			fmt.Fprintf(&b, " (est. build %.3g vs recompute %.3g)", d.MaterializeCost, d.RecomputeCost)
		}
		b.WriteString("; uses:")
		for _, u := range d.Uses {
			kind := "∩"
			if u.Count {
				kind = "count∩"
			}
			fmt.Fprintf(&b, " s%d %s N(v%d) @depth %d", u.OtherReg, kind, u.NbrVar, u.Depth)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// materializeAux runs the auxiliary-graph pass over the fused code.
// Must run after fuseCounts (so uses include fused counting
// intersections) and before annotateNeighborOperands (so rewritten
// operands lose their stale neighbor annotation naturally).
func (l *Lowered) materializeAux(opts LowerOpts) {
	decide := opts.AuxDecide
	if decide == nil {
		return
	}
	sc := newAuxScan(l)
	groups, order := sc.candidates()
	var applied []*AuxCandidate
	for _, src := range order {
		c := groups[src]
		v := decide(c)
		d := AuxDecision{
			AuxCandidate:    *c,
			Table:           -1,
			Applied:         v.Materialize,
			MaterializeCost: v.MaterializeCost,
			RecomputeCost:   v.RecomputeCost,
		}
		if d.Applied {
			d.Table = int32(len(l.Aux) + len(applied))
			applied = append(applied, c)
		}
		l.AuxDecisions = append(l.AuxDecisions, d)
	}
	if len(applied) > 0 {
		sc.apply(applied)
	}
}

// auxScan holds the pass's static analysis over one instruction stream.
type auxScan struct {
	l    *Lowered
	code []Instr

	depth    []int32         // static loop depth per pc (body depth)
	encLoop  []int32         // begin pc of the innermost enclosing loop, -1 at root
	defPC    map[int32]int32 // set register -> defining ISetDef pc
	loopVar  map[int32]int32 // begin pc -> loop variable
	loopOver map[int32]int32 // begin pc -> iteration-set register
	loopPar  map[int32]int32 // begin pc -> parent begin pc (-1 at root)
	varLoop  map[int32]int32 // loop variable -> begin pc (single binding)
	multi    map[int32]bool  // variables bound by more than one loop
}

func newAuxScan(l *Lowered) *auxScan {
	sc := &auxScan{
		l: l, code: l.Code,
		depth:   make([]int32, len(l.Code)),
		encLoop: make([]int32, len(l.Code)),
		defPC:   map[int32]int32{}, loopVar: map[int32]int32{},
		loopOver: map[int32]int32{}, loopPar: map[int32]int32{},
		varLoop: map[int32]int32{}, multi: map[int32]bool{},
	}
	var stack []int32
	top := func() int32 {
		if len(stack) == 0 {
			return -1
		}
		return stack[len(stack)-1]
	}
	for pc := range sc.code {
		ins := &sc.code[pc]
		switch ins.Op {
		case ILoopBegin:
			sc.depth[pc] = int32(len(stack))
			sc.encLoop[pc] = top()
			sc.loopVar[int32(pc)] = ins.Dst
			sc.loopOver[int32(pc)] = ins.A
			sc.loopPar[int32(pc)] = top()
			if _, dup := sc.varLoop[ins.Dst]; dup {
				sc.multi[ins.Dst] = true
			}
			sc.varLoop[ins.Dst] = int32(pc)
			stack = append(stack, int32(pc))
		case ILoopNext:
			sc.depth[pc] = int32(len(stack))
			sc.encLoop[pc] = top()
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			sc.depth[pc] = int32(len(stack))
			sc.encLoop[pc] = top()
			if ins.Op == ISetDef {
				sc.defPC[ins.Dst] = int32(pc)
			}
		}
	}
	return sc
}

// supersets returns every register r is statically a subset of
// (including r itself), following the subset-preserving def chain.
func (sc *auxScan) supersets(r int32) []int32 {
	seen := map[int32]bool{r: true}
	out := []int32{r}
	for i := 0; i < len(out); i++ {
		pc, ok := sc.defPC[out[i]]
		if !ok {
			continue
		}
		ins := &sc.code[pc]
		var parents []int32
		switch ins.Set {
		case OpIntersect:
			parents = []int32{ins.A, ins.B}
		case OpSubtract, OpRemove, OpTrimAbove, OpTrimBelow, OpCopy,
			OpFilterLabel, OpFilterLabelOfVar, OpFilterLabelNotOfVar:
			parents = []int32{ins.A}
		}
		for _, p := range parents {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// inScopeAt reports whether loop chain element `loop` (a begin pc) is
// an ancestor of — or equal to — the loop enclosing pc.
func (sc *auxScan) inScopeAt(loop, pc int32) bool {
	for cur := sc.encLoop[pc]; cur >= 0; cur = sc.loopPar[cur] {
		if cur == loop {
			return true
		}
	}
	return false
}

// legalSrc reports whether register s can source an auxiliary table
// for a use at usePC whose neighbor variable is bound by loop lw.
func (sc *auxScan) legalSrc(s, usePC, lw int32) bool {
	def, ok := sc.defPC[s]
	if !ok {
		return false
	}
	switch sc.code[def].Set {
	case OpAll, OpAuxRow:
		return false
	}
	dC := sc.depth[def]
	if dC < 1 {
		return false // builds never at root (rule 5)
	}
	if sc.depth[lw]+1 < dC+2 {
		return false // no intermediate loop to amortize over (rule 4)
	}
	// C's enclosing loop must be an ancestor of the use (rule 3) and of
	// the w-loop (so the build precedes every restart of it).
	enc := sc.encLoop[def]
	if enc < 0 || !sc.inScopeAt(enc, usePC) {
		return false
	}
	if lwEnc := sc.loopPar[lw]; lwEnc < 0 || !(lwEnc == enc || sc.inScopeAt(enc, lw)) {
		return false
	}
	// Row existence (rule 2): the w-loop iterates a subset of C.
	over := sc.loopOver[lw]
	for _, sup := range sc.supersets(over) {
		if sup == s {
			return true
		}
	}
	return false
}

// candidates enumerates legal uses, assigns each its deepest legal
// source, and groups them per source register. order preserves first-
// appearance order for deterministic decisions.
func (sc *auxScan) candidates() (map[int32]*AuxCandidate, []int32) {
	nbrVar := map[int32]int32{}
	for pc := range sc.code {
		ins := &sc.code[pc]
		if ins.Op == ISetDef && ins.Set == OpNeighbors {
			nbrVar[ins.Dst] = ins.V
		}
	}
	groups := map[int32]*AuxCandidate{}
	var order []int32

	tryUse := func(pc int32, operand byte, nbrReg, otherReg int32, isCount bool) bool {
		w, ok := nbrVar[nbrReg]
		if !ok || sc.multi[w] {
			return false
		}
		if _, isNbr := nbrVar[otherReg]; isNbr {
			// Both operands are bare neighbor sets: no pruned other side,
			// nothing for rule 1 to hold onto.
			return false
		}
		lw, ok := sc.varLoop[w]
		if !ok || !sc.inScopeAt(lw, pc) {
			return false
		}
		// Deepest legal source wins: most-pruned rows.
		best, bestDepth := int32(-1), int32(-1)
		for _, s := range sc.supersets(otherReg) {
			if s == nbrReg || !sc.legalSrc(s, pc, lw) {
				continue
			}
			if d := sc.depth[sc.defPC[s]]; d > bestDepth || (d == bestDepth && sc.defPC[s] > sc.defPC[best]) {
				best, bestDepth = s, d
			}
		}
		if best < 0 {
			return false
		}
		g := groups[best]
		if g == nil {
			def := sc.defPC[best]
			g = &AuxCandidate{
				Src:          best,
				SrcDepth:     sc.depth[def],
				BuildLoopVar: sc.loopVar[sc.encLoop[def]],
			}
			groups[best] = g
			order = append(order, best)
		}
		g.Uses = append(g.Uses, AuxUse{
			NbrVar: w, OtherReg: otherReg,
			LoopVar: sc.loopVar[lw], EncLoopVar: sc.loopVar[sc.encLoop[pc]],
			Depth: sc.depth[pc],
			Count: isCount, pc: pc, operand: operand,
		})
		return true
	}

	for pc := range sc.code {
		ins := &sc.code[pc]
		switch {
		case ins.Op == ISetDef && ins.Set == OpIntersect:
			if !tryUse(int32(pc), 'B', ins.B, ins.A, false) {
				tryUse(int32(pc), 'A', ins.A, ins.B, false)
			}
		case ins.Op == ICount && ins.B >= 0:
			if !tryUse(int32(pc), 'B', ins.B, ins.A, true) {
				tryUse(int32(pc), 'A', ins.A, ins.B, true)
			}
		}
	}
	return groups, order
}

// apply materializes the accepted candidates: allocates tables, rewrites
// use operands to fresh OpAuxRow alias registers, and rebuilds the code
// with the IAuxBuild and row defs inserted — remapping every absolute
// offset across the insertions.
func (sc *auxScan) apply(cands []*AuxCandidate) {
	l := sc.l
	// afterOf[i]: instructions attached after original instruction i
	// (table builds, glued to their source def so conditional skips over
	// the def also skip the build). beforeOf[i]: instructions attached
	// before original instruction i (row defs, glued to their use so
	// every jump target landing on the use executes them).
	afterOf := map[int32][]Instr{}
	beforeOf := map[int32][]Instr{}
	inserted := 0
	for _, c := range cands {
		t := int32(len(l.Aux))
		l.Aux = append(l.Aux, AuxTable{Src: c.Src})
		def := sc.defPC[c.Src]
		afterOf[def] = append(afterOf[def], Instr{Op: IAuxBuild, Dst: t, A: c.Src, NbrA: -1, NbrB: -1, WinLo: -1, WinHi: -1})
		inserted++
		for _, u := range c.Uses {
			row := int32(l.NumSets)
			l.NumSets++
			beforeOf[u.pc] = append(beforeOf[u.pc], Instr{
				Op: ISetDef, Set: OpAuxRow, Dst: row, A: t, V: u.NbrVar,
			})
			inserted++
			if u.operand == 'A' {
				sc.code[u.pc].A = row
			} else {
				sc.code[u.pc].B = row
			}
		}
	}

	old := sc.code
	newCode := make([]Instr, 0, len(old)+inserted)
	// instrAt[i]: new index of original instruction i. blockAt[i]: new
	// index of position i as a jump target (includes the row defs glued
	// before i, excludes builds glued after i-1).
	instrAt := make([]int32, len(old)+1)
	blockAt := make([]int32, len(old)+1)
	for i := 0; i <= len(old); i++ {
		blockAt[i] = int32(len(newCode))
		newCode = append(newCode, beforeOf[int32(i)]...)
		instrAt[i] = int32(len(newCode))
		if i < len(old) {
			newCode = append(newCode, old[i])
			newCode = append(newCode, afterOf[int32(i)]...)
		}
	}
	for i := range newCode {
		ins := &newCode[i]
		switch ins.Op {
		case ILoopBegin, ICondSkip:
			ins.Off = blockAt[ins.Off]
		case ILoopNext:
			// The back edge lands at Off+1, so Off must name the begin
			// instruction itself, not its target block.
			ins.Off = instrAt[ins.Off]
		}
	}
	for i := range l.Segments {
		l.Segments[i].Start = blockAt[l.Segments[i].Start]
		l.Segments[i].End = blockAt[l.Segments[i].End]
	}
	l.Code = newCode
}
