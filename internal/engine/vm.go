package engine

// The bytecode VM: a single non-recursive dispatch loop per worker over
// the flat instruction stream produced by ast.Lower. There is no
// per-node interface dispatch, Body slice traversal or recursion in the
// inner mining loops, and all set buffers are preallocated in one
// per-worker arena sized from a static bound analysis of the instruction
// stream, so steady-state execution performs no allocations at all.
// Trims never copy: they alias a window of their operand, and so do the
// operands of windowed intersections and counts.

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"decomine/internal/ast"
	"decomine/internal/graph"
	"decomine/internal/vset"
)

// Kernel-path indices for the per-run counters (Result.KernelCounts):
// which data-plane kernel the VM's intersect/subtract dispatch chose.
// KernelBitmap is the array×bitmap filter (materializing or counting)
// through a hub's adjacency row; KernelBitmapCount is the bitmap×bitmap
// popcount (vset.AndCount) when both operands are hub rows. KernelWords
// is a word op of a local region's word form (local.go), one element
// per word read.
const (
	KernelMerge = iota
	KernelGallop
	KernelBitmap
	KernelBitmapCount
	KernelWords
	NumKernels
)

// KernelNames maps kernel-path indices to the names used in the obs
// registry ("engine.kernel.<name>") and in bench reports.
var KernelNames = [NumKernels]string{"merge", "gallop", "bitmap", "bitmap-count", "words"}

// vmShared is the per-program immutable state shared by every worker
// frame: the bytecode, the graph, the graph-owned vertex lists that root
// set registers alias, the arena capacity plan for the set buffers, and
// the per-segment depth-1 split analysis used by the work-stealing
// scheduler. It is reusable across runs (see Prepare) and its framePool
// recycles worker register files and arenas between runs. Nothing in it
// or in a frame is sized by |V|: OpAll and the label filters over it
// alias lists the graph builds once for all plans.
type vmShared struct {
	g  *graph.Graph
	bc *ast.Lowered
	// hub is the graph's hub bitmap index captured at preparation time
	// (nil when the graph has no hubs);
	// the intersect/subtract dispatch consults it per instruction.
	hub *graph.HubIndex
	// labels is the graph's label index, taken at preparation time when
	// the program filters a neighbor list by label (nil otherwise, and
	// for unlabeled graphs): such a filter slices it (labelSlice).
	labels *graph.LabelIndex
	// root[r] is the read-only graph-owned list that set register r
	// aliases when rooted[r]: g.Vertices() for an OpAll register,
	// g.VerticesWithLabel(l) for an OpFilterLabel of one (possibly empty).
	root   [][]uint32
	rooted []bool
	// bufCap[r] is the arena capacity reserved for set register r; 0 for
	// registers that alias existing storage (rooted registers,
	// OpNeighbors, OpAuxRow, trims, label slices) and so need no buffer.
	bufCap []int
	// arenaLen is the total arena length (sum of bufCap).
	arenaLen int
	// d1[i] describes the splittable depth-1 loop of segment i, if any.
	d1 []d1Info
	// depths[pc] is the static loop depth of each instruction (capped at
	// profMaxDepth-1), the profiler's depth attribution axis.
	depths []int8
	// local is the word form's plan of the program's local regions
	// (local.go); zero without one.
	local localPlan
	// framePool recycles worker frames (register files + arenas) across
	// runs of this program, so repeated queries allocate nothing.
	framePool sync.Pool
}

// d1Info is the per-segment depth-1 split analysis: a top-level loop
// segment is splittable when its body is "prefix; single depth-1 loop"
// with a pure prefix and no suffix, so an outer iteration can be
// partitioned into independent subranges of the depth-1 candidate set.
type d1Info struct {
	begin int32 // pc of the depth-1 ILoopBegin
	next  int32 // pc of the matching ILoopNext
	ok    bool
}

// analyzeD1 decides, per top-level loop segment, whether the scheduler
// may split an outer iteration at depth 1. The conditions guarantee that
// executing the depth-1 loop body over a partition of the candidate set,
// on frames that each re-execute the prefix, is equivalent to executing
// it whole:
//
//   - the prefix (instructions between the outer binding and the depth-1
//     ILoopBegin) contains only pure register definitions (ISetDef,
//     IScalarDef, ICount, IScalarReset) — safe to re-execute per subrange;
//   - the depth-1 loop is followed immediately by the outer ILoopNext
//     (empty suffix), so nothing reads state accumulated across depth-1
//     iterations after the loop;
//   - every IScalarAccum in the body targets a scalar that is also reset
//     within the body, and every hash op in the body uses a table that is
//     cleared within the body, making each depth-1 iteration
//     self-contained (no cross-iteration carry a partition could break).
func analyzeD1(bc *ast.Lowered) []d1Info {
	out := make([]d1Info, len(bc.Segments))
	for si := range bc.Segments {
		seg := &bc.Segments[si]
		if !seg.Loop {
			continue
		}
		pc := seg.Start + 1
		pure := true
		for pc < seg.End-1 && bc.Code[pc].Op != ast.ILoopBegin {
			switch bc.Code[pc].Op {
			case ast.ISetDef, ast.IScalarDef, ast.ICount, ast.IScalarReset, ast.IAuxBuild, ast.ILocalBuild:
				pc++
			default:
				pure = false
			}
			if !pure {
				break
			}
		}
		if !pure || pc >= seg.End-1 || bc.Code[pc].Op != ast.ILoopBegin {
			continue
		}
		begin := pc
		after := bc.Code[begin].Off // first instruction past the loop
		next := after - 1
		if next <= begin || next >= seg.End ||
			bc.Code[next].Op != ast.ILoopNext ||
			bc.Code[next].LoopID != bc.Code[begin].LoopID {
			continue
		}
		if after != seg.End-1 {
			continue // non-empty suffix
		}
		resetIn := map[int32]bool{}
		clearIn := map[int32]bool{}
		for i := begin + 1; i < next; i++ {
			switch bc.Code[i].Op {
			case ast.IScalarReset:
				resetIn[bc.Code[i].Dst] = true
			case ast.IHashClear:
				clearIn[bc.Code[i].A] = true
			}
		}
		ok := true
		for i := begin + 1; i < next && ok; i++ {
			ins := &bc.Code[i]
			switch ins.Op {
			case ast.IScalarAccum:
				ok = resetIn[ins.Dst]
			case ast.IHashInc, ast.IHashGet:
				ok = clearIn[ins.A]
			}
		}
		if ok {
			out[si] = d1Info{begin: begin, next: next, ok: true}
		}
	}
	return out
}

func newVMShared(g *graph.Graph, bc *ast.Lowered) *vmShared {
	nSets := bc.SetRegs()
	sh := &vmShared{
		g: g, bc: bc, hub: g.HubIndex(),
		root:   make([][]uint32, nSets),
		rooted: make([]bool, nSets),
		bufCap: make([]int, nSets),
	}
	maxDeg := g.MaxDegree()
	// Static size bounds per set register. Definitions are SSA (one def
	// site per register), so a single pass in instruction order sees
	// every def after its operands' defs.
	bound := make([]int, nSets)
	all := make([]bool, nSets) // registers defined by OpAll
	for i := range bc.Code {
		ins := &bc.Code[i]
		if ins.Op != ast.ISetDef {
			continue
		}
		// Root sets alias the graph's own lists: no buffer, no per-plan
		// copy, whatever |V| is.
		switch {
		case ins.Set == ast.OpAll:
			all[ins.Dst] = true
			sh.root[ins.Dst], sh.rooted[ins.Dst] = g.Vertices(), true
			bound[ins.Dst] = len(sh.root[ins.Dst])
			continue
		case ins.Set == ast.OpFilterLabel && all[ins.A]:
			sh.root[ins.Dst], sh.rooted[ins.Dst] = g.VerticesWithLabel(uint32(ins.Imm)), true
			bound[ins.Dst] = len(sh.root[ins.Dst])
			continue
		case (ins.Set == ast.OpFilterLabel || ins.Set == ast.OpFilterLabelOfVar) && ins.NbrA >= 0:
			// A label slice of a neighbor list aliases the graph's
			// label-grouped adjacency: no buffer.
			sh.labels = g.LabelIndex()
			bound[ins.Dst] = min(bound[ins.A], maxDeg)
			continue
		}
		switch ins.Set {
		case ast.OpNeighbors:
			bound[ins.Dst] = maxDeg
		case ast.OpAuxRow:
			// A row is N(v) ∩ src: never longer than either. Aliases the
			// table's arena, so no buffer of its own.
			b := bound[bc.Aux[ins.A].Src]
			if maxDeg < b {
				b = maxDeg
			}
			bound[ins.Dst] = b
		case ast.OpIntersect:
			b := bound[ins.A]
			if bb := bound[ins.B]; bb < b {
				b = bb
			}
			bound[ins.Dst] = b
			sh.bufCap[ins.Dst] = b
		case ast.OpTrimAbove, ast.OpTrimBelow:
			// A window of its operand: no buffer of its own. Set registers
			// are SSA, so the operand is redefined only by a new iteration
			// of a loop enclosing both defs, which re-executes the window's
			// def before any read of it.
			bound[ins.Dst] = bound[ins.A]
		default:
			// Subtract, Remove, copy and label filters never produce more
			// elements than their primary operand.
			bound[ins.Dst] = bound[ins.A]
			sh.bufCap[ins.Dst] = bound[ins.A]
		}
	}
	for _, c := range sh.bufCap {
		sh.arenaLen += c
	}
	sh.d1 = analyzeD1(bc)
	sh.depths = profDepths(bc)
	if bc.Local != nil {
		sh.local = newLocalPlan(sh)
	}
	return sh
}

// labelSlice returns N(v) ∩ {label = l} as a slice of the label index.
// On an unlabeled graph every label is 0 (graph.Label's rule): N(v) for
// l = 0 and nothing otherwise.
func (sh *vmShared) labelSlice(v, l uint32) []uint32 {
	if sh.labels != nil {
		return sh.labels.Neighbors(v, l)
	}
	if l == 0 {
		return sh.g.Neighbors(v)
	}
	return nil
}

// getFrame returns a recycled worker frame (reset by putFrame) or a
// fresh one.
func (sh *vmShared) getFrame() *vmFrame {
	if v := sh.framePool.Get(); v != nil {
		return v.(*vmFrame)
	}
	return newVMFrame(sh)
}

// putFrame resets f and recycles it. Resetting here rather than on reuse
// means a pooled frame pins nothing of the run that used it last (its
// consumer, progress tracker or aux keys).
func (sh *vmShared) putFrame(f *vmFrame) {
	f.resetForJob()
	sh.framePool.Put(f)
}

// vmFrame is a per-worker register file plus loop iteration state. Set
// buffers come from one contiguous arena allocated at frame creation and
// reused across every iteration.
type vmFrame struct {
	sh       *vmShared
	vars     []uint32
	sets     [][]uint32 // current value per set register
	bufs     [][]uint32 // arena-backed storage per set register
	scalars  []int64
	globalsV []int64
	tables   []*HashTable
	keyBuf   []uint32
	consumer Consumer

	// iter[l] / cur[l] are loop l's next-element index and captured
	// iteration set, indexed by Instr.LoopID.
	iter []int
	cur  [][]uint32

	// Auxiliary tables (one entry per ast.AuxTable): auxVerts[t] aliases
	// the source register's value at build time (the sorted row keys),
	// auxData[t] is the concatenated row storage and auxOffs[t] the row
	// offsets into it (len(auxVerts[t])+1 entries). Rows live until the
	// table's IAuxBuild re-executes — per iteration of the loop enclosing
	// the source's definition — and OpAuxRow registers alias into
	// auxData, so rebuilding in place is safe: every alias is itself
	// redefined (glued before its use) before any read that follows a
	// rebuild. Tables are frame-local and never synced across workers;
	// the lowering pass keeps builds off the root level so stolen work
	// always re-executes the build it needs (exec prefix replay).
	// auxCur[t] is the index of table t's last row hit, where the next
	// lookup starts (see auxRow). The keys may alias a window (a trim of
	// a register defined further out); the window's source is redefined
	// only on a new iteration of a loop that also re-executes the window's
	// def and the build before any row is read.
	auxVerts [][]uint32
	auxOffs  [][]int32
	auxData  [][]uint32
	auxCur   []int

	// loc is the word form's state of the program's local regions
	// (local.go); nil without one.
	loc *localState

	// opCounts[op] counts executed instructions per opcode.
	opCounts [ast.NumOpcodes]int64
	// kernelCounts[k] counts intersect/subtract dispatches per kernel
	// path (merge/gallop/bitmap/bitmap-count/words) and kernelElems[k] the
	// elements those dispatches processed (the per-path work measure the
	// cost models price). mute suspends counting while a thief re-derives
	// a prefix the owner already executed, so totals stay independent of
	// the steal schedule (same discipline as OpCounts and execPrefix).
	kernelCounts [NumKernels]int64
	kernelElems  [NumKernels]int64
	mute         bool
	// elided counts the instructions the uncleaned program would have
	// executed beyond these: each loop body iteration adds its
	// ILoopBegin.Imm (see ast's clean.go). Only profiles report it.
	elided int64

	// fuel is the dispatch loop's back-edge countdown, persisted across
	// exec calls so cancellation polls — and, when profiling, sampling
	// windows — stay on a fixed instruction cadence even when the
	// scheduler drives many short exec calls (execD1 bodies).
	fuel int32
	// prof arms the sampling profiler on this frame (nil = off);
	// profStamp is the open window's start, lastKernel the kernel path
	// of the most recent dispatch (NumKernels = none yet).
	prof       *profAgg
	profStamp  int64
	lastKernel int8
	// progress, when non-nil, receives this frame's completion spans
	// (execD1 flushes its processed depth-1 range).
	progress *ProgressTracker

	// cancel, when non-nil, is polled by the dispatch loop every
	// cancelCheckInterval instructions; cancelHit records that an
	// in-flight exec was aborted by it (vs. a consumer stop).
	cancel    *atomic.Bool
	cancelHit bool
	// fuelBudget, when non-nil, is the run's shared instruction budget
	// (Options.Fuel): each fuel window debits cancelCheckInterval from
	// it, and a negative balance aborts like a cancellation.
	fuelBudget *atomic.Int64
	// stopFlag, when non-nil, is the owning job's stop word; execD1
	// polls it between depth-1 iterations so a worker abandons a long
	// split range once another worker stopped the run.
	stopFlag *atomic.Int32
}

// cancelCheckInterval bounds how many instructions the VM executes
// between Options.Cancel polls, so even a single huge iteration (a hub
// vertex's subtree) overruns a budget by at most ~2^14 instructions.
const cancelCheckInterval = 1 << 14

// cacheLine is the padding padded keeps on either side of a slice.
const cacheLine = 64

// padded returns a zeroed n-element slice with a cache line of unused
// memory on either side. Frames are small and the workers' frames of
// one run are allocated back to back, so without it two workers would
// write the same cache lines.
func padded[T any](n int) []T {
	var zero T
	pad := int((cacheLine + unsafe.Sizeof(zero) - 1) / unsafe.Sizeof(zero))
	return make([]T, n+2*pad)[pad : pad+n : pad+n]
}

func newVMFrame(sh *vmShared) *vmFrame {
	prog := sh.bc.Prog
	f := &vmFrame{
		sh:       sh,
		vars:     padded[uint32](prog.NumVars),
		sets:     padded[[]uint32](len(sh.bufCap)),
		bufs:     padded[[]uint32](len(sh.bufCap)),
		scalars:  padded[int64](prog.NumScalars),
		globalsV: padded[int64](prog.NumGlobals),
		keyBuf:   padded[uint32](prog.MaxKey + 4)[:0],
		iter:     padded[int](sh.bc.NumLoops),
		cur:      padded[[]uint32](sh.bc.NumLoops),
	}
	f.fuel = cancelCheckInterval
	f.lastKernel = NumKernels
	arena := padded[uint32](sh.arenaLen)
	off := 0
	for r, c := range sh.bufCap {
		if c > 0 {
			f.bufs[r] = arena[off : off : off+c]
			off += c
		}
	}
	if sh.bc.Local != nil {
		f.loc = newLocalState(sh)
	}
	if na := len(sh.bc.Aux); na > 0 {
		f.auxVerts = make([][]uint32, na)
		f.auxOffs = make([][]int32, na)
		f.auxData = make([][]uint32, na)
		f.auxCur = make([]int, na)
	}
	f.tables = make([]*HashTable, prog.NumTables)
	for i := range f.tables {
		width := 1
		if i < len(prog.TableWidths) && prog.TableWidths[i] > 0 {
			width = prog.TableWidths[i]
		}
		f.tables[i] = NewHashTable(width)
	}
	return f
}

// exec runs the instructions in [start, end), returning false if a
// consumer requested early termination of the whole run.
//
// Hot state (instruction stream, register files, loop cursors) is
// hoisted into locals so the dispatch loop keeps it in registers, and
// the inner-loop workhorses — neighbor aliasing, label slices,
// intersection, trims, set sizes and sorted-prefix counts — are inlined
// into the switch to avoid a call per instruction; the long tail of
// opcodes dispatches to execSet/execScalar.
func (f *vmFrame) exec(start, end int32) bool {
	code := f.sh.bc.Code
	g := f.sh.g
	vars := f.vars
	sets := f.sets
	scalars := f.scalars
	iter := f.iter
	cur := f.cur
	counts := &f.opCounts
	fuel := f.fuel
	// words: the current root runs its local region in the word form.
	words := f.loc != nil && f.loc.on
	for pc := start; pc < end; {
		fuel--
		if fuel <= 0 {
			fuel = cancelCheckInterval
			if f.prof != nil {
				f.profFlush(pc)
			}
			if f.cancel != nil && f.cancel.Load() {
				f.cancelHit = true
				f.fuel = fuel
				return false
			}
			if f.fuelBudget != nil && f.fuelBudget.Add(-cancelCheckInterval) < 0 {
				f.cancelHit = true
				f.fuel = fuel
				return false
			}
		}
		ins := &code[pc]
		counts[ins.Op]++
		switch ins.Op {
		case ast.ILoopBegin:
			if words && ins.Flags&ast.FlagLocal != 0 {
				if f.localBegin(ins, pc) {
					pc++
				} else {
					pc = ins.Off
				}
				continue
			}
			s := sets[ins.A]
			if len(s) == 0 {
				pc = ins.Off
				continue
			}
			if ins.B >= 0 && len(sets[ins.B]) == 0 {
				// Every product the body adds is zero (clean-up rule 8).
				f.elided += (int64(ins.Off-pc-1) + ins.Imm) * int64(len(s))
				pc = ins.Off
				continue
			}
			cur[ins.LoopID] = s
			iter[ins.LoopID] = 1
			vars[ins.Dst] = s[0]
			f.elided += ins.Imm * int64(len(s))
			pc++
		case ast.ILoopNext:
			id := ins.LoopID
			s := cur[id]
			if i := iter[id]; i < len(s) {
				if words && ins.Flags&ast.FlagLocal != 0 {
					f.bindRank(ins.Dst, s[i])
				} else {
					vars[ins.Dst] = s[i]
				}
				iter[id] = i + 1
				pc = ins.Off + 1
				continue
			}
			pc++
		case ast.ISetDef:
			if words && ins.Flags&ast.FlagLocal != 0 {
				f.localSet(ins)
				pc++
				continue
			}
			switch ins.Set {
			case ast.OpNeighbors:
				// Alias the CSR adjacency directly: zero copies.
				sets[ins.Dst] = g.Neighbors(vars[ins.V])
			case ast.OpIntersect:
				a, b := f.operands(ins, ins.WinLo, ins.WinHi)
				d := f.intersectInto(f.bufs[ins.Dst], a, b, ins.NbrA, ins.NbrB)
				f.bufs[ins.Dst] = d
				sets[ins.Dst] = d
			case ast.OpTrimAbove, ast.OpTrimBelow:
				sets[ins.Dst] = f.trim(ins)
			case ast.OpAuxRow:
				sets[ins.Dst] = f.auxRow(ins.A, vars[ins.V])
			case ast.OpFilterLabel:
				if ins.NbrA >= 0 {
					sets[ins.Dst] = f.sh.labelSlice(vars[ins.NbrA], uint32(ins.Imm))
				} else {
					f.execSet(ins)
				}
			default:
				f.execSet(ins)
			}
			pc++
		case ast.IScalarDef:
			if words && ins.Flags&ast.FlagLocal != 0 {
				scalars[ins.Dst] = f.localScalar(ins)
				pc++
				continue
			}
			switch ins.SOp {
			case ast.SSize:
				scalars[ins.Dst] = int64(len(sets[ins.A]))
			case ast.SConst:
				scalars[ins.Dst] = ins.Imm
			case ast.SCountAbove:
				scalars[ins.Dst] = vset.CountAbove(sets[ins.A], vars[ins.V])
			case ast.SCountBelow:
				scalars[ins.Dst] = vset.CountBelow(sets[ins.A], vars[ins.V])
			default:
				scalars[ins.Dst] = f.execScalar(ins)
			}
			pc++
		case ast.IScalarReset:
			scalars[ins.Dst] = ins.Imm
			pc++
		case ast.IScalarAccum:
			scalars[ins.Dst] += ins.Imm * scalars[ins.SA]
			pc++
		case ast.IGlobalAdd:
			f.globalsV[ins.Dst] += ins.Imm * scalars[ins.SA]
			pc++
		case ast.IHashClear:
			f.tables[ins.A].Clear()
			pc++
		case ast.IHashInc:
			f.tables[ins.A].Add(f.key(ins), ins.Imm)
			pc++
		case ast.IHashGet:
			scalars[ins.Dst] = f.tables[ins.A].Get(f.key(ins))
			pc++
		case ast.ICondSkip:
			if scalars[ins.SA] > 0 {
				pc++
			} else {
				pc = ins.Off
			}
		case ast.IEmit:
			if !f.consumer.Process(int(ins.Dst), f.key(ins), scalars[ins.SA]) {
				f.fuel = fuel
				return false
			}
			pc++
		case ast.ICount:
			scalars[ins.Dst] = f.execCount(ins)
			pc++
		case ast.IAuxBuild:
			f.execAuxBuild(ins)
			pc++
		case ast.ILocalBuild:
			f.execLocalBuild(ins)
			words = f.loc.on
			pc++
		default:
			panic(fmt.Sprintf("engine: unknown opcode %d", ins.Op))
		}
	}
	f.fuel = fuel
	return true
}

// --- hybrid set-kernel dispatch ---

// hubRow returns the hub bitmap row backing a neighbor-set operand:
// non-nil only when the operand is a plain OpNeighbors register (nbr is
// its defining vertex variable, from ast's NbrA/NbrB annotation) and
// that vertex is a hub of the prepared index.
func (f *vmFrame) hubRow(nbr int32) []uint64 {
	if nbr < 0 || f.sh.hub == nil {
		return nil
	}
	return f.sh.hub.Row(f.vars[nbr])
}

// noteKernel attributes one intersect/subtract dispatch of elems
// processed elements to a kernel path, unless this frame is replaying a
// stolen prefix.
func (f *vmFrame) noteKernel(k int, elems int64) {
	if f.mute {
		return
	}
	f.kernelCounts[k]++
	f.kernelElems[k] += elems
	f.lastKernel = int8(k)
}

// noteArrayKernel attributes an array-path intersection of a and b: a
// gallop when vset.Intersect will gallop, measured as the smaller
// operand's length times the per-probe search depth
// (min·(log₂(max/min)+1)), and a merge of la+lb elements otherwise.
func (f *vmFrame) noteArrayKernel(a, b []uint32) {
	if !vset.Gallops(a, b) {
		f.noteKernel(KernelMerge, int64(len(a)+len(b)))
		return
	}
	la, lb := len(a), len(b)
	if la > lb {
		la, lb = lb, la
	}
	elems := int64(1)
	if la > 0 {
		elems = int64(la) * int64(bits.Len(uint(lb/la))+1)
	}
	f.noteKernel(KernelGallop, elems)
}

// operands returns the set operands A and B (nil without one) of an
// intersection or count, cut to the window above vars[lo] and below
// vars[hi] when it has one, except where the operand's own bounds
// already keep it inside (the Uncut flags).
func (f *vmFrame) operands(ins *ast.Instr, lo, hi int32) (a, b []uint32) {
	a = f.sets[ins.A]
	if ins.B >= 0 {
		b = f.sets[ins.B]
	}
	if lo >= 0 || hi >= 0 {
		a = f.window(a, ins.NbrA, uncut(ins, ast.UncutLoA, lo), uncut(ins, ast.UncutHiA, hi))
		if ins.B >= 0 {
			b = f.window(b, ins.NbrB, uncut(ins, ast.UncutLoB, lo), uncut(ins, ast.UncutHiB, hi))
		}
	}
	return a, b
}

// uncut returns bound k, or no bound (-1) when ins carries flag.
func uncut(ins *ast.Instr, flag uint8, k int32) int32 {
	if ins.Flags&flag != 0 {
		return -1
	}
	return k
}

// trim evaluates a trim: the oriented list N⁺(v)/N⁻(v) when it trims
// the bound's own neighbor list (NbrA == V), a binary-search slice of
// its operand otherwise.
func (f *vmFrame) trim(ins *ast.Instr) []uint32 {
	v := f.vars[ins.V]
	switch {
	case ins.NbrA == ins.V && ins.Set == ast.OpTrimBelow:
		return f.sh.g.NeighborsAbove(v)
	case ins.NbrA == ins.V:
		return f.sh.g.NeighborsBelow(v)
	case ins.Set == ast.OpTrimBelow:
		return vset.SliceAbove(f.sets[ins.A], v)
	}
	return vset.SliceBelow(f.sets[ins.A], v)
}

// window cuts operand s of a windowed intersection, count or table
// build to the elements above vars[lo] and below vars[hi] (-1: no
// bound). An operand that is the neighbor list of a bound's own
// variable (nbr, from ast's NbrA/NbrB, equals it) is the graph's
// oriented list, an O(1) slice; any other is cut by exponential search
// from the front, which costs the logarithm of what it skips.
func (f *vmFrame) window(s []uint32, nbr, lo, hi int32) []uint32 {
	g, vars := f.sh.g, f.vars
	switch {
	case lo >= 0 && nbr == lo:
		s, lo = g.NeighborsAbove(vars[lo]), -1
	case hi >= 0 && nbr == hi:
		s, hi = g.NeighborsBelow(vars[hi]), -1
	}
	if lo >= 0 {
		s = s[vset.Seek(s, 0, vars[lo]+1):]
	}
	if hi >= 0 {
		s = s[:vset.Seek(s, 0, vars[hi])]
	}
	return s
}

// intersectInto evaluates a∩b into dst through the cheapest kernel.
// Filtering the smaller array through the other operand's hub bitmap
// row costs O(min) word probes — beating both merge (O(la+lb)) and
// galloping (O(min·log max)) — so it wins whenever the row exists. When
// only the smaller operand has a row, filtering the larger array
// through it (O(max)) still beats merge but loses to galloping once
// max ≥ GallopThreshold·min, the same ratio vset.Intersect switches at.
// A row stays valid when a and b are windows of neighbor lists: both
// share one window, so filtering either through the other's full row
// keeps only elements inside it.
func (f *vmFrame) intersectInto(dst, a, b []uint32, nbrA, nbrB int32) []uint32 {
	if f.sh.hub != nil {
		rowA, rowB := f.hubRow(nbrA), f.hubRow(nbrB)
		if len(a) > len(b) {
			a, b, rowA, rowB = b, a, rowB, rowA
		}
		if rowB != nil {
			f.noteKernel(KernelBitmap, int64(len(a)))
			return vset.IntersectBitmap(dst, a, rowB)
		}
		if rowA != nil && len(b) < len(a)*vset.GallopThreshold {
			f.noteKernel(KernelBitmap, int64(len(b)))
			return vset.IntersectBitmap(dst, b, rowA)
		}
	}
	f.noteArrayKernel(a, b)
	return vset.Intersect(dst, a, b)
}

// subtractInto evaluates a\b into dst: O(|a|) word probes through b's
// hub row when it has one, the linear merge otherwise. (Operand A's row
// never helps — the output enumerates a regardless.)
func (f *vmFrame) subtractInto(dst, a, b []uint32, nbrB int32) []uint32 {
	if rowB := f.hubRow(nbrB); rowB != nil {
		f.noteKernel(KernelBitmap, int64(len(a)))
		return vset.SubtractBitmap(dst, a, rowB)
	}
	f.noteKernel(KernelMerge, int64(len(a)+len(b)))
	return vset.Subtract(dst, a, b)
}

// intersectCount routes a fused counting intersection. windowed marks
// that a and b were cut to the count's window: a full hub row still
// filters the other, windowed, operand, but the bitmap×bitmap popcount
// would count outside the window. Without a window, when both rows are
// available and a row's word count undercuts both array lengths, that
// popcount answers in ceil(|V|/64) word ops flat.
func (f *vmFrame) intersectCount(a, b []uint32, nbrA, nbrB int32, windowed bool) int64 {
	if f.sh.hub != nil {
		rowA, rowB := f.hubRow(nbrA), f.hubRow(nbrB)
		if !windowed && rowA != nil && rowB != nil {
			if w := f.sh.hub.Words(); w < len(a) && w < len(b) {
				f.noteKernel(KernelBitmapCount, int64(w))
				return vset.AndCount(rowA, rowB)
			}
		}
		if len(a) > len(b) {
			a, b, rowA, rowB = b, a, rowB, rowA
		}
		if rowB != nil {
			f.noteKernel(KernelBitmap, int64(len(a)))
			return vset.IntersectCountBitmap(a, rowB)
		}
		if rowA != nil && len(b) < len(a)*vset.GallopThreshold {
			f.noteKernel(KernelBitmap, int64(len(b)))
			return vset.IntersectCountBitmap(b, rowA)
		}
	}
	f.noteArrayKernel(a, b)
	return vset.IntersectCount(a, b)
}

// execCount evaluates a fused ICount: the size of a windowed (and
// optionally intersected) set minus excluded members, with no set
// materialized. The window cuts both operands as zero-copy subslices
// (window). Imm members are excluded without a test: the lowering
// proved them there.
func (f *vmFrame) execCount(ins *ast.Instr) int64 {
	if f.local(ins) {
		return f.localCount(ins)
	}
	a, b := f.operands(ins, ins.V, ins.SA)
	n := int64(len(a))
	if ins.B >= 0 {
		n = f.intersectCount(a, b, ins.NbrA, ins.NbrB, ins.V >= 0 || ins.SA >= 0)
	}
	if ins.NKeys > 0 {
		n -= f.exclCount(ins, a, b)
	}
	return n - ins.Imm
}

// exclCount returns how many distinct excluded-variable values of a
// fused ICount are members of a (and of b when the count intersects,
// ins.B >= 0: an empty b may be nil, as a label slice can be). Values
// are deduplicated at runtime: two excluded variables holding the same
// vertex remove one element, not two.
func (f *vmFrame) exclCount(ins *ast.Instr, a, b []uint32) int64 {
	ks := f.sh.bc.KeyVars(ins)
	var n int64
	for i, kv := range ks {
		v := f.vars[kv]
		dup := false
		for _, pv := range ks[:i] {
			if f.vars[pv] == v {
				dup = true
				break
			}
		}
		if !dup && vset.Contains(a, v) && (ins.B < 0 || vset.Contains(b, v)) {
			n++
		}
	}
	return n
}

// --- auxiliary tables (GraphMini-style materialized pruned adjacency) ---

// execAuxBuild (re)materializes auxiliary table Dst from source set
// register A: one row N(v) ∩ src per vertex v ∈ src, concatenated into
// the frame's per-table arena with offsets recorded per row. The row
// keys alias the source register's current value, which stays stable
// until the source is redefined — and the build instruction is glued
// directly after that definition, so it always re-executes before any
// row is read again. Each row dispatches through the hybrid kernel
// selection (v's hub bitmap row, when present, covers N(v) exactly) and
// feeds the kernel counters per row, so profiles and the
// steal-schedule-invariant work totals both see the build's true cost.
// Under a depth-1 steal the thief replays the build muted (execPrefix),
// exactly like the other pure prefix definitions. A windowed build
// (clean-up rule 9) keeps only keys and row elements inside its window:
// every row lookup's key lies inside it, and every row read reads only
// inside it.
func (f *vmFrame) execAuxBuild(ins *ast.Instr) {
	if f.local(ins) {
		return // its rows are row masks under the word form
	}
	t := ins.Dst
	src := f.sets[ins.A]
	windowed := ins.WinLo >= 0 || ins.WinHi >= 0
	if windowed {
		src = f.window(src, ins.NbrA, ins.WinLo, ins.WinHi)
	}
	offs := f.auxOffs[t][:0]
	data := f.auxData[t][:0]
	g := f.sh.g
	hub := f.sh.hub
	for _, v := range src {
		nb := g.Neighbors(v)
		if windowed {
			nb = f.window(nb, -1, ins.WinLo, ins.WinHi)
		}
		need := len(nb)
		if len(src) < need {
			need = len(src)
		}
		// Rows are addressed by offset, so growing (and relocating) the
		// arena between rows is safe; within a row the kernels append at
		// most `need` elements, which the headroom guarantees, so a row
		// never detaches from the arena mid-build.
		if cap(data)-len(data) < need {
			grown := make([]uint32, len(data), 2*cap(data)+need)
			copy(grown, data)
			data = grown
		}
		offs = append(offs, int32(len(data)))
		dst := data[len(data):len(data)]
		if hub != nil {
			if hr := hub.Row(v); hr != nil {
				f.noteKernel(KernelBitmap, int64(len(src)))
				row := vset.IntersectBitmap(dst, src, hr)
				data = data[:len(data)+len(row)]
				continue
			}
		}
		f.noteArrayKernel(nb, src)
		row := vset.Intersect(dst, nb, src)
		data = data[:len(data)+len(row)]
	}
	offs = append(offs, int32(len(data)))
	f.auxVerts[t] = src
	f.auxOffs[t] = offs
	f.auxData[t] = data
	f.auxCur[t] = 0
}

// auxRow returns auxiliary table t's row for vertex v: a zero-copy
// alias into the table arena. The lowering pass's legality rules
// guarantee lookups hit (the w-loop iterates a subset of the table
// source); a miss returns the empty set for safety. Lookups within one
// w-loop arrive in ascending order, so the search gallops forward from
// the previous hit and restarts from the first row only when v moved
// backwards (a new pass of the w-loop).
func (f *vmFrame) auxRow(t int32, v uint32) []uint32 {
	verts := f.auxVerts[t]
	from := f.auxCur[t]
	if from >= len(verts) || verts[from] > v {
		from = 0
	}
	i := vset.Seek(verts, from, v)
	if i >= len(verts) || verts[i] != v {
		return nil
	}
	f.auxCur[t] = i
	offs := f.auxOffs[t]
	return f.auxData[t][offs[i]:offs[i+1]]
}

func (f *vmFrame) key(ins *ast.Instr) []uint32 {
	ks := f.sh.bc.KeyVars(ins)
	buf := f.keyBuf[:len(ks)]
	for i, v := range ks {
		buf[i] = f.vars[v]
	}
	return buf
}

func (f *vmFrame) execSet(ins *ast.Instr) {
	if f.local(ins) {
		f.localSet(ins)
		return
	}
	dst := f.bufs[ins.Dst]
	switch ins.Set {
	case ast.OpAll:
		f.sets[ins.Dst] = f.sh.root[ins.Dst]
		return
	case ast.OpNeighbors:
		// Alias the CSR adjacency directly: zero copies.
		f.sets[ins.Dst] = f.sh.g.Neighbors(f.vars[ins.V])
		return
	case ast.OpAuxRow:
		f.sets[ins.Dst] = f.auxRow(ins.A, f.vars[ins.V])
		return
	case ast.OpTrimAbove, ast.OpTrimBelow:
		f.sets[ins.Dst] = f.trim(ins)
		return
	case ast.OpIntersect:
		a, b := f.operands(ins, ins.WinLo, ins.WinHi)
		dst = f.intersectInto(dst, a, b, ins.NbrA, ins.NbrB)
	case ast.OpSubtract:
		dst = f.subtractInto(dst, f.sets[ins.A], f.sets[ins.B], ins.NbrB)
	case ast.OpRemove:
		dst = vset.Remove(dst, f.sets[ins.A], f.vars[ins.V])
	case ast.OpCopy:
		dst = vset.Copy(dst, f.sets[ins.A])
	case ast.OpFilterLabel:
		if f.sh.rooted[ins.Dst] {
			f.sets[ins.Dst] = f.sh.root[ins.Dst]
			return
		}
		if ins.NbrA >= 0 {
			f.sets[ins.Dst] = f.sh.labelSlice(f.vars[ins.NbrA], uint32(ins.Imm))
			return
		}
		dst = dst[:0]
		want := uint32(ins.Imm)
		for _, x := range f.sets[ins.A] {
			if f.sh.g.Label(x) == want {
				dst = append(dst, x)
			}
		}
	case ast.OpFilterLabelOfVar:
		want := f.sh.g.Label(f.vars[ins.V])
		if ins.NbrA >= 0 {
			f.sets[ins.Dst] = f.sh.labelSlice(f.vars[ins.NbrA], want)
			return
		}
		dst = dst[:0]
		for _, x := range f.sets[ins.A] {
			if f.sh.g.Label(x) == want {
				dst = append(dst, x)
			}
		}
	case ast.OpFilterLabelNotOfVar:
		dst = dst[:0]
		avoid := f.sh.g.Label(f.vars[ins.V])
		for _, x := range f.sets[ins.A] {
			if f.sh.g.Label(x) != avoid {
				dst = append(dst, x)
			}
		}
	}
	f.bufs[ins.Dst] = dst
	f.sets[ins.Dst] = dst
}

func (f *vmFrame) execScalar(ins *ast.Instr) int64 {
	if f.local(ins) {
		return f.localScalar(ins)
	}
	switch ins.SOp {
	case ast.SSize:
		return int64(len(f.sets[ins.A]))
	case ast.SConst:
		return ins.Imm
	case ast.SMul:
		return f.scalars[ins.SA] * f.scalars[ins.SB]
	case ast.SDiv:
		d := f.scalars[ins.SB]
		if d == 0 {
			return 0
		}
		return f.scalars[ins.SA] / d
	case ast.SSub:
		return f.scalars[ins.SA] - f.scalars[ins.SB]
	case ast.SAdd:
		return f.scalars[ins.SA] + f.scalars[ins.SB]
	case ast.SCountAbove:
		return vset.CountAbove(f.sets[ins.A], f.vars[ins.V])
	case ast.SCountBelow:
		return vset.CountBelow(f.sets[ins.A], f.vars[ins.V])
	}
	panic(fmt.Sprintf("engine: unknown scalar op %d", ins.SOp))
}

// --- depth-1 loop splitting (work-stealing scheduler) ---

// d1Sched receives shed depth-1 subranges from a frame executing a
// heavy outer iteration; shed returns false when nobody is idle (the
// range stays with the caller). elemUnits is the progress budget of the
// whole outer element, carried along so whoever executes the shed range
// accounts its proportional share.
type d1Sched interface {
	shed(seg int, v uint32, lo, hi int, elemUnits int64) bool
}

// d1SplitMin is the smallest depth-1 range worth splitting: below it
// the prefix-recompute cost of a stolen piece outweighs the balance
// gain.
const d1SplitMin = 32

// execPrefix executes the pure straight-line prefix of a splittable
// segment without op or kernel counting: a thief re-derives the
// register state an owner already produced, so the recomputation is
// excluded from OpCounts and KernelCounts to keep totals independent
// of the steal schedule.
func (f *vmFrame) execPrefix(start, end int32) {
	f.mute = true
	defer func() { f.mute = false }()
	code := f.sh.bc.Code
	for pc := start; pc < end; pc++ {
		ins := &code[pc]
		switch ins.Op {
		case ast.ISetDef:
			f.execSet(ins)
		case ast.IScalarDef:
			f.scalars[ins.Dst] = f.execScalar(ins)
		case ast.IScalarReset:
			f.scalars[ins.Dst] = ins.Imm
		case ast.ICount:
			f.scalars[ins.Dst] = f.execCount(ins)
		case ast.IAuxBuild:
			f.execAuxBuild(ins)
		case ast.ILocalBuild:
			f.execLocalBuild(ins)
		default:
			panic(fmt.Sprintf("engine: impure opcode %d in splittable prefix", ins.Op))
		}
	}
}

// execD1 executes one outer iteration of splittable loop segment i with
// the outer variable bound to v, restricted to depth-1 candidate
// indices [lo, hi) (hi < 0 means the whole set). The owner call
// (lo == 0) executes and counts the prefix; thief calls re-derive it
// uncounted. While sched reports idle workers, the upper half of the
// remaining range is shed as a stealable task, bounding straggler time
// by the deepest single depth-1 iteration instead of the hottest outer
// vertex. elemUnits is this outer element's progress budget; the
// processed span's share is flushed to f.progress on exit (shed ranges
// carry their own share to whoever executes them). Returns false if a
// consumer or cancellation stopped the run.
func (f *vmFrame) execD1(i int, v uint32, lo, hi int, elemUnits int64, sched d1Sched) bool {
	seg := &f.sh.bc.Segments[i]
	d1 := &f.sh.d1[i]
	f.vars[seg.Var] = v
	if f.prof != nil {
		f.profStart()
		defer func() { f.profFlush(d1.next) }()
	}
	owner := lo == 0
	if owner {
		if !f.exec(seg.Start+1, d1.begin) {
			return false
		}
	} else {
		f.execPrefix(seg.Start+1, d1.begin)
	}
	begin := &f.sh.bc.Code[d1.begin]
	c := f.sets[begin.A]
	local := f.local(begin)
	if local {
		c = f.localRanks(begin)
	}
	if hi < 0 || hi > len(c) {
		hi = len(c)
	}
	// Manual loop-op accounting mirrors exec exactly (ILoopBegin once
	// per outer iteration, ILoopNext once per element) so OpCounts are
	// identical whether or not the range was split.
	if owner {
		f.opCounts[ast.ILoopBegin]++
		f.elided += f.sh.bc.Code[seg.Start].Imm
	}
	lo0 := lo
	if begin.B >= 0 && (local && f.localEmpty(begin.B) || !local && len(f.sets[begin.B]) == 0) {
		// Guarded and skipped, as exec would (clean-up rule 8).
		f.elided += int64(d1.next-d1.begin) * int64(hi-lo)
		lo = hi
	}
	ok := true
	for lo < hi {
		if f.stopFlag != nil && f.stopFlag.Load() != 0 {
			break // run already stopped elsewhere; abandon quietly
		}
		if sched != nil && hi-lo >= d1SplitMin {
			mid := lo + (hi-lo)/2
			if sched.shed(i, v, mid, hi, elemUnits) {
				hi = mid
				continue
			}
		}
		if local {
			f.bindRank(begin.Dst, c[lo])
		} else {
			f.vars[begin.Dst] = c[lo]
		}
		f.opCounts[ast.ILoopNext]++
		if !f.exec(d1.begin+1, d1.next) {
			ok = false
			break
		}
		lo++
	}
	f.elided += begin.Imm * int64(lo-lo0)
	if f.progress != nil && elemUnits > 0 {
		if len(c) == 0 {
			// Empty candidate set: the whole element is done (owner only;
			// shed ranges never come from empty sets).
			f.progress.add(elemUnits)
		} else {
			f.progress.add(elemSpan(elemUnits, len(c), lo0, lo))
		}
	}
	return ok
}

// splittable reports whether loop segment i supports depth-1 splitting.
func (f *vmFrame) splittable(i int) bool { return f.sh.d1[i].ok }

// --- per-frame half of the parallel driver (Run, Pool.runPiece) ---

// topLoop returns the iteration set of top-level segment i, or
// (nil, false) when it is not a loop.
func (f *vmFrame) topLoop(i int) ([]uint32, bool) {
	seg := &f.sh.bc.Segments[i]
	if !seg.Loop {
		return nil, false
	}
	return f.sets[seg.Over], true
}

// execTop runs top-level segment i whole on this frame.
func (f *vmFrame) execTop(i int) bool {
	seg := &f.sh.bc.Segments[i]
	if f.prof != nil {
		f.profStart()
		defer func() { f.profFlush(seg.End - 1) }()
	}
	return f.exec(seg.Start, seg.End)
}

// execChunk runs loop segment i's body over an explicit element slice;
// false means a consumer or cancellation stopped the run (f.cancelHit
// tells which).
func (f *vmFrame) execChunk(i int, elems []uint32) bool {
	seg := &f.sh.bc.Segments[i]
	if f.prof != nil {
		f.profStart()
		defer func() { f.profFlush(seg.End - 1) }()
	}
	// The driver owns the top-level iteration, so the segment's own
	// ILoopBegin/ILoopNext pair is skipped: bind and run the body.
	f.elided += f.sh.bc.Code[seg.Start].Imm * int64(len(elems))
	for _, v := range elems {
		f.vars[seg.Var] = v
		if !f.exec(seg.Start+1, seg.End-1) {
			return false
		}
	}
	return true
}

// syncFrom re-copies the master's register state (pins, root-level set
// and scalar definitions) into this worker frame at a segment boundary.
func (f *vmFrame) syncFrom(m *vmFrame) {
	copy(f.vars, m.vars)
	copy(f.scalars, m.scalars)
	// Root-level set registers are SSA and read-only within loops, so
	// workers may alias the master's slices; in-loop registers are
	// redefined before any read.
	copy(f.sets, m.sets)
}

// resetForJob clears run-scoped accumulators on a recycled frame.
func (f *vmFrame) resetForJob() {
	for i := range f.globalsV {
		f.globalsV[i] = 0
	}
	f.opCounts = [ast.NumOpcodes]int64{}
	f.kernelCounts = [NumKernels]int64{}
	f.kernelElems = [NumKernels]int64{}
	f.mute = false
	f.elided = 0
	for i := range f.auxVerts {
		// Drop the previous run's source alias so recycled frames don't
		// pin graph or arena memory across queries; offs/data keep their
		// capacity for reuse.
		f.auxVerts[i] = nil
	}
	if f.loc != nil {
		f.loc.on, f.loc.ids = false, nil
	}
	for _, t := range f.tables {
		t.Clear()
	}
	f.cancel = nil
	f.cancelHit = false
	f.fuelBudget = nil
	f.stopFlag = nil
	f.consumer = nil
	f.fuel = cancelCheckInterval
	f.prof = nil
	f.profStamp = 0
	f.lastKernel = NumKernels
	f.progress = nil
}

// instrCount reports the bytecode instructions this frame executed.
func (f *vmFrame) instrCount() int64 {
	var n int64
	for _, c := range f.opCounts {
		n += c
	}
	return n
}

// mergeFrom folds a worker's accumulators into this (master) frame.
func (f *vmFrame) mergeFrom(w *vmFrame) {
	for i, v := range w.globalsV {
		f.globalsV[i] += v
	}
	for i, c := range w.opCounts {
		f.opCounts[i] += c
	}
	for i, c := range w.kernelCounts {
		f.kernelCounts[i] += c
	}
	for i, c := range w.kernelElems {
		f.kernelElems[i] += c
	}
	f.elided += w.elided
	if f.prof != nil && w.prof != nil {
		f.prof.merge(w.prof)
	}
}

// finish publishes the master frame's accumulators into res.
func (f *vmFrame) finish(res *Result) {
	copy(res.Globals, f.globalsV)
	res.OpCounts = make([]int64, ast.NumOpcodes)
	copy(res.OpCounts, f.opCounts[:])
	res.KernelCounts = make([]int64, NumKernels)
	copy(res.KernelCounts, f.kernelCounts[:])
	res.KernelElems = make([]int64, NumKernels)
	copy(res.KernelElems, f.kernelElems[:])
	if f.prof != nil {
		res.Profile = f.profToObs()
	}
}
