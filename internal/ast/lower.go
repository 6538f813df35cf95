package ast

// This file implements bytecode lowering: it compiles an optimized
// Program tree into a flat, contiguous instruction stream executed by
// the engine's non-recursive VM dispatch loop. Structured control flow
// (loops, conditionals) is resolved into absolute instruction offsets at
// lower time, so the hot path pays no pointer-chasing over Node.Body
// slices and no recursive call per node — the in-process analogue of the
// paper's generated-code backend (§7.4), and the only one.

import (
	"fmt"
	"strings"

	"decomine/internal/obs"
)

// Lowering feeds into the shared metrics registry: how many programs
// were flattened to bytecode by LowerWith and how long their cleaned
// instruction streams are. Lowering happens once per cached plan, so
// these move on plan cache misses only.
var (
	obsLowerings = obs.Default.Counter("compile.lowerings")
	obsCodeLen   = obs.Default.Histogram("compile.code_len")
)

// OpCode discriminates bytecode instructions.
type OpCode uint8

const (
	// ILoopBegin enters a loop: captures the iteration set, binds the
	// loop variable to its first element, or jumps past the loop when
	// the set is empty.
	ILoopBegin OpCode = iota
	// ILoopNext is the loop back-edge: binds the next element and jumps
	// to the body start, or falls through when the set is exhausted.
	ILoopNext
	// ISetDef evaluates a SetOp into a set register.
	ISetDef
	// IScalarDef evaluates a ScalarOp into a scalar register.
	IScalarDef
	// IScalarReset sets a volatile scalar to an immediate.
	IScalarReset
	// IScalarAccum adds Imm*scalar[SA] into a volatile scalar.
	IScalarAccum
	// IGlobalAdd adds Imm*scalar[SA] into a global accumulator.
	IGlobalAdd
	// IHashClear clears a hash table (O(1) epoch bump).
	IHashClear
	// IHashInc adds Imm to a keyed table entry.
	IHashInc
	// IHashGet loads a keyed table entry into a scalar (0 if absent).
	IHashGet
	// ICondSkip jumps to Off when scalar[SA] <= 0.
	ICondSkip
	// IEmit delivers a partial embedding to the consumer.
	IEmit
	// ICount is a fused counting instruction produced by the peephole
	// pass: it counts the elements of a set expression without
	// materializing intermediate sets. See Instr for field use.
	ICount
	// IAuxBuild materializes auxiliary table Dst from source register A:
	// one pruned adjacency row N(v) ∩ sets[A] per element v of sets[A],
	// rebuilt each time the source's defining loop iteration produces a
	// new value (per-loop-iteration lifetime). Produced by the
	// auxiliary-graph pass (aux.go); rows are read through ISetDef
	// OpAuxRow.
	IAuxBuild
	// ILocalBuild opens a local region (local.go): it indexes the members
	// of set register A by their rank, builds their row masks, and picks
	// the word form or the list form for the region's instructions under
	// the current root.
	ILocalBuild
	// NumOpcodes is the number of distinct opcodes (sizes counter arrays).
	NumOpcodes
)

var opNames = [NumOpcodes]string{
	"loop.begin", "loop.next", "set", "scalar", "reset", "accum",
	"global.add", "hash.clear", "hash.inc", "hash.get", "cond.skip", "emit",
	"count", "aux.build", "local.build",
}

// String returns the disassembler mnemonic of the opcode.
func (op OpCode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", int(op))
}

// Instr is one flat bytecode instruction. Field use depends on Op:
//
//	ILoopBegin   Dst=loop var, A=set register, Off=index past the loop,
//	             LoopID=dense loop index, Imm=instructions the clean-up
//	             pass deleted from one iteration of the body (clean.go),
//	             B=guard set register or -1: the loop is skipped when
//	             the guard is empty (clean-up rule 8)
//	ILoopNext    Dst=loop var, A=set register, Off=ILoopBegin index,
//	             LoopID matching the begin
//	ISetDef      Set sub-op with Dst/A/B/V/Imm as in Node; on
//	             OpIntersect, WinLo/WinHi window both operands
//	             (clean-up rule 9)
//	IScalarDef   SOp sub-op with Dst/A/SA/SB/V/Imm as in Node
//	IScalarReset Dst, Imm
//	IScalarAccum Dst, SA, Imm
//	IGlobalAdd   Dst, SA, Imm
//	IHashClear   A=table
//	IHashInc     A=table, Key/NKeys, Imm
//	IHashGet     Dst, A=table, Key/NKeys
//	ICondSkip    SA, Off=skip target
//	IEmit        Dst=subpattern index, SA=count scalar, Key/NKeys
//	ICount       Dst=scalar, A=base set, B=second set (∩) or -1,
//	             V=strict lower-bound var or -1, SA=strict upper-bound
//	             var or -1, Key/NKeys=excluded vars, Imm=members known to
//	             be excluded, subtracted as a constant (clean-up rule 7)
//	IAuxBuild    Dst=aux table index, A=source set register,
//	             WinLo/WinHi=window of its keys and rows (rule 9)
//	ILocalBuild  A=S, the region's index set; WinLo/WinHi=window of the
//	             members that get a row; Imm=1 when every row is read
//	             only above its own vertex (rows N⁺(u) ∩ S), 0 for
//	             whole rows N(u) ∩ S
//
// ISetDef with Set == OpAuxRow aliases Dst to auxiliary table A's row
// for vertex variable V (empty when the vertex has no row).
type Instr struct {
	Op  OpCode
	Set SetOp
	SOp ScalarOp
	// Flags holds FlagLocal and the Uncut* bits (see their docs).
	Flags uint8

	Dst int32
	A   int32
	B   int32
	V   int32
	SA  int32
	SB  int32

	// Off is the absolute control-flow target (see per-op docs above).
	Off int32
	// Key/NKeys locate this instruction's key variables in Lowered.Keys.
	Key   int32
	NKeys int32
	// LoopID is the dense loop index used for per-frame iteration state.
	LoopID int32

	// NbrA/NbrB, on ISetDef OpIntersect/OpSubtract and ICount, name the
	// vertex variable whose OpNeighbors definition produced set operand
	// A/B (-1 when the operand is not a plain neighbor set). The engine
	// uses them to look up hub bitmap rows at dispatch time: registers
	// are SSA and the defining variable is stable between the def and
	// every use, so operand A IS Neighbors(vars[NbrA]) whenever NbrA >= 0.
	// On ISetDef OpFilterLabel/OpFilterLabelOfVar, NbrA >= 0 tells the
	// engine to slice the graph's label-grouped adjacency instead of
	// scanning operand A.
	NbrA int32
	NbrB int32

	// WinLo/WinHi, on ISetDef OpIntersect, are its window (clean-up
	// rule 9): every reader reads only elements above vars[WinLo] and
	// below vars[WinHi], so the engine cuts both operands to that range
	// before the merge and the result holds nothing else. On IAuxBuild
	// they window the table's keys and every row alike. -1 is no bound;
	// lowering sets both to -1 on every set def and table build.
	WinLo int32
	WinHi int32

	Imm int64
}

// Instr.Flags bits.
const (
	// FlagLocal marks an instruction of a local region (local.go): it
	// runs in the word form when its root chose the word form at the
	// region's ILocalBuild, and in the list form otherwise.
	FlagLocal uint8 = 1 << iota
	// UncutLoA/UncutHiA/UncutLoB/UncutHiB mark, on a windowed
	// intersection or count, an operand whose own window or trim already
	// implies the instruction's lower (Lo) or upper (Hi) bound: the
	// engine does not cut it there (clean-up rule 9).
	UncutLoA
	UncutHiA
	UncutLoB
	UncutHiB
)

// Segment is one root-level statement of the lowered program. The
// parallel driver iterates segments in order; loop segments are the
// parallelizable units (the driver binds the loop variable per chunk and
// executes the body range [Start+1, End-1) directly, bypassing the
// segment's own ILoopBegin/ILoopNext pair).
type Segment struct {
	Start, End int32 // [Start, End) instruction range
	Loop       bool
	Var, Over  int32 // loop variable / set register when Loop
}

// Lowered is a compiled flat program: the instruction stream, the pooled
// key indices, and the root-level segmentation. The Program is retained
// for its register-file header (frame sizing) and for pseudocode
// rendering; the instruction stream is what executes.
type Lowered struct {
	Prog     *Program
	Code     []Instr
	Keys     []int32
	Segments []Segment
	// NumLoops is the number of ILoopBegin instructions; per-frame loop
	// iteration state is sized by it.
	NumLoops int
	// NumSets is the set-register file size: Prog.NumSets plus the
	// OpAuxRow alias registers inserted by the auxiliary-graph pass. The
	// Program itself is never mutated by lowering, so two lowered forms
	// of one program (aux on/off) can coexist.
	NumSets int
	// Aux describes the auxiliary tables materialized by IAuxBuild
	// instructions, and AuxDecisions every candidate table the pass
	// considered (applied or rejected), for Explain and the slow-query
	// log.
	Aux          []AuxTable
	AuxDecisions []AuxDecision
	// Local is, per set register, how a local region's word form reads
	// it (local.go); nil when the program has no local region.
	Local []LocalKind
}

// SetRegs returns the set-register file size of the lowered form
// (Prog.NumSets plus inserted auxiliary row registers).
func (l *Lowered) SetRegs() int {
	if l.NumSets > l.Prog.NumSets {
		return l.NumSets
	}
	return l.Prog.NumSets
}

// Lower flattens a validated program into bytecode with default options
// (no decision callback, so no auxiliary tables).
func Lower(p *Program) *Lowered { return LowerWith(p, LowerOpts{}) }

// LowerWith flattens a validated program into bytecode. Loop and
// conditional offsets are resolved to absolute instruction indices; hash
// and emit keys are pooled into one shared slice. The program must not
// be mutated afterwards (the lowered form does not track tree edits).
// The last steps are the clean-up pass (clean.go) and the local-region
// pass (local.go), which change what executes but never what the
// program computes.
func LowerWith(p *Program, opts LowerOpts) *Lowered {
	l := LowerUnwindowed(p, opts)
	l.localize(l.windowIntersections())
	obsLowerings.Inc()
	obsCodeLen.Observe(int64(len(l.Code)))
	return l
}

// AuxDecisions returns the auxiliary-graph verdicts LowerWith would
// record for p, without the clean-up pass: the algorithm search needs
// only these from each candidate it arbitrates.
func AuxDecisions(p *Program, opts LowerOpts) []AuxDecision {
	return lower(p, opts).AuxDecisions
}

// LowerUncleaned is LowerWith without the clean-up pass: the reference
// instruction stream that differential tests compare the cleaned one
// against. Nothing but tests calls it.
func LowerUncleaned(p *Program, opts LowerOpts) *Lowered { return lower(p, opts) }

// LowerUnwindowed is LowerWith without rule 9 of the clean-up pass.
// Windows change kernel work by design, so tests of rules 1–8 compare
// it, not LowerWith, against LowerUncleaned, and tests of rule 9
// compare LowerListForm, the rule-9 stream without local regions,
// against it. Nothing but LowerWith, LowerListForm and tests call it.
func LowerUnwindowed(p *Program, opts LowerOpts) *Lowered {
	l := lower(p, opts)
	l.clean()
	return l
}

// LowerListForm is LowerWith without the local-region pass (local.go):
// every instruction runs in the list form on every root. Local regions
// skip auxiliary table builds and move kernel work between the list
// kernels and word operations by design, so tests that measure table
// or window element work compare list forms, and tests of the pass
// compare LowerWith against it. Nothing but tests calls it.
func LowerListForm(p *Program, opts LowerOpts) *Lowered {
	l := LowerUnwindowed(p, opts)
	l.windowIntersections()
	return l
}

// lower is LowerWith up to, and not including, the clean-up pass.
func lower(p *Program, opts LowerOpts) *Lowered {
	size := 0 // every node lowers to one instruction, a loop to two, the root to none
	Walk(p.Root, func(n *Node) {
		switch n.Kind {
		case KRoot:
		case KLoop:
			size += 2
		default:
			size++
		}
	})
	l := &Lowered{Prog: p, NumSets: p.NumSets, Code: make([]Instr, 0, size)}
	var emit func(n *Node)
	emit = func(n *Node) {
		switch n.Kind {
		case KRoot:
			for _, c := range n.Body {
				emit(c)
			}
		case KLoop:
			b := int32(len(l.Code))
			id := int32(l.NumLoops)
			l.NumLoops++
			l.Code = append(l.Code, Instr{Op: ILoopBegin, Dst: int32(n.Var), A: int32(n.Over), B: -1, LoopID: id})
			for _, c := range n.Body {
				emit(c)
			}
			e := int32(len(l.Code))
			l.Code = append(l.Code, Instr{Op: ILoopNext, Dst: int32(n.Var), A: int32(n.Over), Off: b, LoopID: id})
			l.Code[b].Off = e + 1
		case KCondPos:
			i := len(l.Code)
			l.Code = append(l.Code, Instr{Op: ICondSkip, SA: int32(n.SA)})
			for _, c := range n.Body {
				emit(c)
			}
			l.Code[i].Off = int32(len(l.Code))
		case KSetDef:
			l.Code = append(l.Code, Instr{
				Op: ISetDef, Set: n.Op,
				Dst: int32(n.Dst), A: int32(n.A), B: int32(n.B), V: int32(n.V), Imm: n.Imm,
				WinLo: -1, WinHi: -1,
			})
		case KScalarDef:
			l.Code = append(l.Code, Instr{
				Op: IScalarDef, SOp: n.SOp,
				Dst: int32(n.Dst), A: int32(n.A), SA: int32(n.SA), SB: int32(n.SB), V: int32(n.V), Imm: n.Imm,
			})
		case KScalarReset:
			l.Code = append(l.Code, Instr{Op: IScalarReset, Dst: int32(n.Dst), Imm: n.Imm})
		case KScalarAccum:
			l.Code = append(l.Code, Instr{Op: IScalarAccum, Dst: int32(n.Dst), SA: int32(n.SA), Imm: n.Imm})
		case KGlobalAdd:
			l.Code = append(l.Code, Instr{Op: IGlobalAdd, Dst: int32(n.Dst), SA: int32(n.SA), Imm: n.Imm})
		case KHashClear:
			l.Code = append(l.Code, Instr{Op: IHashClear, A: int32(n.Table)})
		case KHashInc:
			key, nk := l.poolKeys(n.Keys)
			l.Code = append(l.Code, Instr{Op: IHashInc, A: int32(n.Table), Key: key, NKeys: nk, Imm: n.Imm})
		case KHashGet:
			key, nk := l.poolKeys(n.Keys)
			l.Code = append(l.Code, Instr{Op: IHashGet, Dst: int32(n.Dst), A: int32(n.Table), Key: key, NKeys: nk})
		case KEmit:
			key, nk := l.poolKeys(n.Keys)
			l.Code = append(l.Code, Instr{Op: IEmit, Dst: int32(n.Sub), SA: int32(n.SA), Key: key, NKeys: nk})
		default:
			panic(fmt.Sprintf("ast: cannot lower node kind %d", n.Kind))
		}
	}
	for _, n := range p.Root.Body {
		start := int32(len(l.Code))
		emit(n)
		seg := Segment{Start: start, End: int32(len(l.Code))}
		if n.Kind == KLoop {
			seg.Loop = true
			seg.Var, seg.Over = int32(n.Var), int32(n.Over)
		}
		l.Segments = append(l.Segments, seg)
	}
	keep, _ := l.fuseCounts()
	l.compact(keep)
	l.materializeAux(opts)
	l.annotateNeighborOperands()
	return l
}

// annotateNeighborOperands fills Instr.NbrA/NbrB on the intersect/
// subtract family (including fused counts) and NbrA on trims, on the
// label filters that have a slice path and on table builds: the vertex
// variable whose OpNeighbors definition is the operand's single SSA def
// site, or -1.
// Runs after fuseCounts so annotations land on the surviving
// instructions (fusion deletes intersections and trims, never the
// OpNeighbors defs they read), and again after the clean-up pass, which
// re-fuses counts and redirects count operands.
func (l *Lowered) annotateNeighborOperands() {
	nbrVar := map[int32]int32{}
	for i := range l.Code {
		ins := &l.Code[i]
		if ins.Op == ISetDef && ins.Set == OpNeighbors {
			nbrVar[ins.Dst] = ins.V
		}
	}
	lookup := func(reg int32) int32 {
		if v, ok := nbrVar[reg]; ok {
			return v
		}
		return -1
	}
	for i := range l.Code {
		ins := &l.Code[i]
		switch {
		case ins.Op == ISetDef && (ins.Set == OpIntersect || ins.Set == OpSubtract):
			ins.NbrA, ins.NbrB = lookup(ins.A), lookup(ins.B)
		case ins.Op == ISetDef && (ins.Set == OpFilterLabel || ins.Set == OpFilterLabelOfVar):
			ins.NbrA, ins.NbrB = lookup(ins.A), -1
		case ins.Op == ISetDef && (ins.Set == OpTrimBelow || ins.Set == OpTrimAbove):
			// NbrA == V: a trim of the bound's own neighbor list, which the
			// graph slices as its oriented list in O(1).
			ins.NbrA, ins.NbrB = lookup(ins.A), -1
		case ins.Op == ICount:
			ins.NbrA = lookup(ins.A)
			ins.NbrB = -1
			if ins.B >= 0 {
				ins.NbrB = lookup(ins.B)
			}
		case ins.Op == IAuxBuild:
			ins.NbrA, ins.NbrB = lookup(ins.A), -1
		}
	}
}

// setReads appends the set registers read by instruction ins to dst.
func setReads(ins *Instr, dst []int32) []int32 {
	for _, r := range setOperands(ins, make([]*int32, 0, 2)) {
		dst = append(dst, *r)
	}
	return dst
}

// setOperands appends to dst the fields of instruction ins that hold
// set registers it reads.
func setOperands(ins *Instr, dst []*int32) []*int32 {
	switch ins.Op {
	case ILoopBegin:
		if ins.B >= 0 {
			dst = append(dst, &ins.B)
		}
		return append(dst, &ins.A)
	case ILoopNext:
		return append(dst, &ins.A)
	case ISetDef:
		switch ins.Set {
		case OpAll, OpNeighbors:
			return dst
		case OpAuxRow:
			return dst // A is a table index, not a set register
		case OpIntersect, OpSubtract:
			return append(dst, &ins.A, &ins.B)
		default: // remove, trims, copy, label filters: unary on A
			return append(dst, &ins.A)
		}
	case IScalarDef:
		switch ins.SOp {
		case SSize, SCountAbove, SCountBelow:
			return append(dst, &ins.A)
		}
	case ICount:
		dst = append(dst, &ins.A)
		if ins.B >= 0 {
			dst = append(dst, &ins.B)
		}
	case IAuxBuild, ILocalBuild:
		return append(dst, &ins.A)
	}
	return dst
}

// fuseCounts is the peephole pass: a size/count scalar whose source set
// is defined by the immediately preceding instruction — and used nowhere
// else — absorbs that definition into a fused ICount, walking the chain
// upward. Intersections, trims and removals feeding only a count are
// thereby evaluated by counting kernels without materializing any
// intermediate set. The AST has no node for this: it is a property of
// the flat instruction encoding. A fused count without an intersection
// is a seed too: the clean-up pass re-runs fusion after deleting the
// trims between such a count and the intersection feeding it. It
// returns the absorbed instructions as false entries of keep and whether
// there were any; the caller compacts.
func (l *Lowered) fuseCounts() (keep []bool, fused bool) {
	uses := make(map[int32]int)
	var scratch []int32
	for i := range l.Code {
		scratch = setReads(&l.Code[i], scratch[:0])
		for _, s := range scratch {
			uses[s]++
		}
	}
	// segOf[i] = index of the segment containing instruction i; fusion
	// never reaches across a segment boundary.
	segOf := make([]int, len(l.Code))
	for si, seg := range l.Segments {
		for i := seg.Start; i < seg.End; i++ {
			segOf[i] = si
		}
	}

	keep = make([]bool, len(l.Code))
	for i := range keep {
		keep[i] = true
	}
	for i := range l.Code {
		ins := &l.Code[i]
		// Seed descriptor from the counting scalar op or fused count.
		c := Instr{Op: ICount, Dst: ins.Dst, A: ins.A, B: -1, V: -1, SA: -1}
		var excl []int32
		switch {
		case ins.Op == ICount && ins.B < 0:
			c.V, c.SA, c.Key, c.NKeys, c.Imm = ins.V, ins.SA, ins.Key, ins.NKeys, ins.Imm
			excl = append(excl, l.KeyVars(ins)...)
		case ins.Op != IScalarDef:
			continue
		case ins.SOp == SSize:
		case ins.SOp == SCountAbove:
			c.V = ins.V
		case ins.SOp == SCountBelow:
			c.SA = ins.V
		default:
			continue
		}
		absorbed := 0
		// Walk the def chain upward while each base is defined by the
		// immediately preceding surviving instruction and used only here.
		d := i - 1
		for d >= 0 && keep[d] && segOf[d] == segOf[i] {
			def := &l.Code[d]
			if def.Op != ISetDef || def.Dst != c.A || uses[def.Dst] != 1 {
				break
			}
			switch def.Set {
			case OpRemove:
				// Rule 7 proved the constant members distinct from the
				// other keys, not from this one.
				if c.Imm != 0 {
					goto done
				}
				excl = append(excl, def.V)
			case OpTrimBelow: // elements > bound
				if c.V >= 0 {
					goto done
				}
				c.V = def.V
			case OpTrimAbove: // elements < bound
				if c.SA >= 0 {
					goto done
				}
				c.SA = def.V
			case OpIntersect:
				if c.B >= 0 {
					goto done
				}
				// Intersection ends the chain: both operands now feed
				// the counting kernel directly.
				c.A, c.B = def.A, def.B
				keep[d] = false
				absorbed++
				goto done
			default:
				goto done
			}
			c.A = def.A
			keep[d] = false
			absorbed++
			d--
		}
	done:
		if absorbed == 0 {
			continue
		}
		if len(excl) > int(c.NKeys) {
			c.Key, c.NKeys = poolKeys32(l, excl)
		}
		l.Code[i] = c
		fused = true
	}
	return keep, fused
}

func poolKeys32(l *Lowered, keys []int32) (off, n int32) {
	off = int32(len(l.Keys))
	l.Keys = append(l.Keys, keys...)
	return off, int32(len(keys))
}

// compact removes instructions marked dead and re-resolves every
// absolute offset (loop begin/next, cond skips, segment ranges). A
// target pointing at a deleted instruction maps to its surviving
// successor.
func (l *Lowered) compact(keep []bool) {
	remap := make([]int32, len(l.Code)+1)
	out := l.Code[:0]
	for i := range l.Code {
		remap[i] = int32(len(out))
		if keep[i] {
			out = append(out, l.Code[i])
		}
	}
	remap[len(l.Code)] = int32(len(out))
	l.Code = out
	for i := range l.Code {
		ins := &l.Code[i]
		switch ins.Op {
		case ILoopBegin, ILoopNext, ICondSkip:
			ins.Off = remap[ins.Off]
		}
	}
	for i := range l.Segments {
		l.Segments[i].Start = remap[l.Segments[i].Start]
		l.Segments[i].End = remap[l.Segments[i].End]
	}
}

func (l *Lowered) poolKeys(keys []int) (off, n int32) {
	off = int32(len(l.Keys))
	for _, k := range keys {
		l.Keys = append(l.Keys, int32(k))
	}
	return off, int32(len(keys))
}

// KeyVars returns the key variable indices of instruction ins.
func (l *Lowered) KeyVars(ins *Instr) []int32 {
	return l.Keys[ins.Key : ins.Key+ins.NKeys]
}

// Disassemble renders the instruction stream one instruction per line,
// used by Explain and the golden tests. An instruction of a local region
// carries "·w" on its mnemonic: it runs on words when its root chose the
// word form (local.go).
func (l *Lowered) Disassemble() string {
	var sb strings.Builder
	for i := range l.Code {
		ins := &l.Code[i]
		op := ins.Op.String()
		if ins.Flags&FlagLocal != 0 {
			op += "·w"
		}
		fmt.Fprintf(&sb, "%03d  %-12s %s\n", i, op, l.operandString(ins))
	}
	return sb.String()
}

// orientedNote lists, as a disassembly comment, the operands of a
// windowed intersection or count that the engine reads as oriented
// neighbor lists, and those it reads uncut because their own bounds
// already keep them inside the window: `  ; s3 = N⁺(v1), s4 uncut`.
func orientedNote(ins *Instr, lo, hi int32) string {
	var parts []string
	for i, op := range [][2]int32{{ins.A, ins.NbrA}, {ins.B, ins.NbrB}} {
		if r := fmt.Sprintf("s%d", op[0]); op[0] >= 0 {
			if o := orientedOperand(op[0], op[1], lo, hi); o != r {
				parts = append(parts, r+" = "+o)
			}
			if ins.Flags&([2]uint8{UncutLoA | UncutHiA, UncutLoB | UncutHiB}[i]) != 0 {
				parts = append(parts, r+" uncut")
			}
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "  ; " + strings.Join(parts, ", ")
}

// localNote renders a set def's word-form reading, as a disassembly
// comment: `  ; row(v1)` for a register read as a row mask.
func (l *Lowered) localNote(ins *Instr) string {
	if int(ins.Dst) < len(l.Local) && l.Local[ins.Dst] == LocalRow {
		return fmt.Sprintf("  ; row(v%d)", ins.V)
	}
	return ""
}

func (l *Lowered) operandString(ins *Instr) string {
	keyList := func() string {
		parts := make([]string, ins.NKeys)
		for i, v := range l.KeyVars(ins) {
			parts[i] = fmt.Sprintf("v%d", v)
		}
		return strings.Join(parts, ",")
	}
	switch ins.Op {
	case ILoopBegin:
		guard := ""
		if ins.B >= 0 {
			guard = fmt.Sprintf(" unless s%d = ∅", ins.B)
		}
		return fmt.Sprintf("v%d in s%d%s  else->%03d  ; loop %d", ins.Dst, ins.A, guard, ins.Off, ins.LoopID)
	case ILoopNext:
		return fmt.Sprintf("v%d  back->%03d  ; loop %d", ins.Dst, ins.Off+1, ins.LoopID)
	case ISetDef:
		if ins.Set == OpAuxRow {
			return fmt.Sprintf("s%d = a%d[v%d]%s", ins.Dst, ins.A, ins.V, l.localNote(ins))
		}
		n := Node{Op: ins.Set, A: int(ins.A), B: int(ins.B), V: int(ins.V), Imm: ins.Imm}
		switch {
		case windowable(ins):
			return fmt.Sprintf("s%d = %s%s%s", ins.Dst, setOpString(&n), windowString(ins.WinLo, ins.WinHi),
				orientedNote(ins, ins.WinLo, ins.WinHi))
		case ins.Set == OpTrimBelow && ins.NbrA == ins.V:
			return fmt.Sprintf("s%d = %s  ; = N⁺(v%d)", ins.Dst, setOpString(&n), ins.V)
		case ins.Set == OpTrimAbove && ins.NbrA == ins.V:
			return fmt.Sprintf("s%d = %s  ; = N⁻(v%d)", ins.Dst, setOpString(&n), ins.V)
		}
		return fmt.Sprintf("s%d = %s%s", ins.Dst, setOpString(&n), l.localNote(ins))
	case IScalarDef:
		n := Node{SOp: ins.SOp, A: int(ins.A), SA: int(ins.SA), SB: int(ins.SB), V: int(ins.V), Imm: ins.Imm}
		return fmt.Sprintf("x%d = %s", ins.Dst, scalarOpString(&n))
	case IScalarReset:
		return fmt.Sprintf("x%d := %d", ins.Dst, ins.Imm)
	case IScalarAccum:
		return fmt.Sprintf("x%d += %d*x%d", ins.Dst, ins.Imm, ins.SA)
	case IGlobalAdd:
		return fmt.Sprintf("g%d += %d*x%d", ins.Dst, ins.Imm, ins.SA)
	case IHashClear:
		return fmt.Sprintf("h%d", ins.A)
	case IHashInc:
		return fmt.Sprintf("h%d[%s] += %d", ins.A, keyList(), ins.Imm)
	case IHashGet:
		return fmt.Sprintf("x%d = h%d[%s]", ins.Dst, ins.A, keyList())
	case ICondSkip:
		return fmt.Sprintf("if x%d <= 0 ->%03d", ins.SA, ins.Off)
	case IEmit:
		return fmt.Sprintf("sub=%d [%s] count=x%d", ins.Dst, keyList(), ins.SA)
	case ICount:
		expr := fmt.Sprintf("s%d", ins.A)
		if ins.B >= 0 {
			expr += fmt.Sprintf(" ∩ s%d", ins.B)
		}
		expr += windowString(ins.V, ins.SA)
		if ins.NKeys > 0 {
			expr += fmt.Sprintf(" − {%s}", keyList())
		}
		imm := ""
		if ins.Imm != 0 {
			imm = fmt.Sprintf(" − %d", ins.Imm)
		}
		return fmt.Sprintf("x%d = |%s|%s%s", ins.Dst, expr, imm, orientedNote(ins, ins.V, ins.SA))
	case IAuxBuild:
		return fmt.Sprintf("a%d = {v -> N(v) ∩ s%d : v ∈ s%d}%s%s", ins.Dst, ins.A, ins.A,
			windowString(ins.WinLo, ins.WinHi), orientedNote(ins, ins.WinLo, ins.WinHi))
	case ILocalBuild:
		row := "N(u)"
		if ins.Imm != 0 {
			row = "N⁺(u)"
		}
		return fmt.Sprintf("S = s%d, rows %s ∩ S : u ∈ S%s", ins.A, row,
			strings.ReplaceAll(windowString(ins.WinLo, ins.WinHi), "x", "u"))
	}
	return "?"
}
