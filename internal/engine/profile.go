package engine

// In-VM sampling profiler. The dispatch loop already pays a back-edge
// fuel check every cancelCheckInterval instructions; when a run is
// profiled (Options.Profile) the same expiry also closes a sampling
// window, attributing the elapsed wall time to the instruction the VM
// is about to execute — bucketed by (opcode × static loop depth ×
// last-dispatched kernel path). Piece boundaries (execTop, execChunk,
// execD1) open and flush windows, so essentially all VM execution wall
// time lands in some bucket. Because windows are bounded by instruction
// count, their time attribution is proportional to instruction share,
// which is exactly what the flame view wants — but not a per-operation
// unit cost; for that, every profKernelInterval-th kernel dispatch is
// additionally timed exactly (see noteKernel), giving cost.Calibrate a
// measured ns-per-element per kernel path plus a residual baseline
// ns-per-instruction from the sampled totals.

import (
	"time"

	"decomine/internal/ast"
	"decomine/internal/obs"
)

var (
	obsProfNS      = obs.Default.Counter("engine.profile.ns")
	obsProfSamples = obs.Default.Counter("engine.profile.samples")
)

// profEpoch anchors the profiler's monotonic clock; time.Since on a
// fixed base compiles down to one nanotime call.
var profEpoch = time.Now()

func profNow() int64 { return int64(time.Since(profEpoch)) }

// profMaxDepth caps the loop-depth dimension of the attribution grid;
// deeper nesting folds into the last slot.
const profMaxDepth = 8

// profKernelSlots is the kernel dimension: one slot per kernel path
// plus slot NumKernels for "no kernel dispatched yet".
const profKernelSlots = NumKernels + 1

// profCells is the flattened (opcode × depth × kernel) grid size.
const profCells = int(ast.NumOpcodes) * profMaxDepth * profKernelSlots

// profKernelInterval: one kernel dispatch in this many (per frame, all
// paths pooled) is timed exactly. Power of two for a cheap mask.
const profKernelInterval = 128

// profAgg is one frame's profile accumulator. It lives off the hot
// path: sampled windows touch it once per cancelCheckInterval
// instructions, timed dispatches once per profKernelInterval kernels.
type profAgg struct {
	ns      [profCells]int64
	samples [profCells]int64
	// Exactly timed kernel dispatches (the calibration subsample).
	kernelNS        [NumKernels]int64
	kernelSampElems [NumKernels]int64
	kernelSamples   [NumKernels]int64
}

func (p *profAgg) reset() { *p = profAgg{} }

func (p *profAgg) merge(o *profAgg) {
	for i, v := range o.ns {
		p.ns[i] += v
	}
	for i, v := range o.samples {
		p.samples[i] += v
	}
	for k := 0; k < NumKernels; k++ {
		p.kernelNS[k] += o.kernelNS[k]
		p.kernelSampElems[k] += o.kernelSampElems[k]
		p.kernelSamples[k] += o.kernelSamples[k]
	}
}

// noteTimed records one exactly timed kernel dispatch.
func (p *profAgg) noteTimed(k int, elems, ns int64) {
	p.kernelNS[k] += ns
	p.kernelSampElems[k] += elems
	p.kernelSamples[k]++
}

// profDepths computes the static loop depth of every pc (capped at
// profMaxDepth-1): an ILoopBegin sits at its enclosing depth, the body
// and the matching ILoopNext one deeper.
func profDepths(bc *ast.Lowered) []int8 {
	out := make([]int8, len(bc.Code))
	depth := int8(0)
	for pc := range bc.Code {
		switch bc.Code[pc].Op {
		case ast.ILoopBegin:
			out[pc] = depth
			if depth < profMaxDepth-1 {
				depth++
			}
		case ast.ILoopNext:
			out[pc] = depth
			if depth > 0 {
				depth--
			}
		default:
			out[pc] = depth
		}
	}
	return out
}

// profIndex flattens an attribution cell.
func profIndex(op ast.OpCode, depth int8, kernel int8) int {
	return (int(op)*profMaxDepth+int(depth))*profKernelSlots + int(kernel)
}

// profStart opens a sampling window at the current instant.
func (f *vmFrame) profStart() { f.profStamp = profNow() }

// profFlush closes the current window, attributing it to pc.
func (f *vmFrame) profFlush(pc int32) {
	now := profNow()
	d := now - f.profStamp
	f.profStamp = now
	if d <= 0 {
		return
	}
	i := profIndex(f.sh.bc.Code[pc].Op, f.sh.depths[pc], f.lastKernel)
	f.prof.ns[i] += d
	f.prof.samples[i]++
}

// profToObs converts a master frame's merged accumulators into the
// public profile representation.
func (f *vmFrame) profToObs() *obs.Profile {
	p := &obs.Profile{}
	for op := 0; op < int(ast.NumOpcodes); op++ {
		for d := 0; d < profMaxDepth; d++ {
			for k := 0; k < profKernelSlots; k++ {
				i := profIndex(ast.OpCode(op), int8(d), int8(k))
				if f.prof.samples[i] == 0 && f.prof.ns[i] == 0 {
					continue
				}
				b := obs.ProfileBucket{
					Op:      ast.OpCode(op).String(),
					Depth:   d,
					NS:      f.prof.ns[i],
					Samples: f.prof.samples[i],
				}
				if k < NumKernels {
					b.Kernel = KernelNames[k]
				}
				p.TotalNS += b.NS
				p.Samples += b.Samples
				p.Buckets = append(p.Buckets, b)
			}
		}
	}
	p.Ops = map[string]int64{}
	for op, c := range f.opCounts {
		if c != 0 {
			p.Ops[ast.OpCode(op).String()] = c
		}
	}
	p.Elided = f.elided
	for k := 0; k < NumKernels; k++ {
		name := KernelNames[k]
		if c := f.kernelCounts[k]; c != 0 {
			if p.Kernels == nil {
				p.Kernels = map[string]int64{}
			}
			p.Kernels[name] = c
		}
		if e := f.kernelElems[k]; e != 0 {
			if p.KernelElems == nil {
				p.KernelElems = map[string]int64{}
			}
			p.KernelElems[name] = e
		}
		if n := f.prof.kernelSamples[k]; n != 0 {
			if p.KernelNS == nil {
				p.KernelNS = map[string]int64{}
				p.KernelSampleElems = map[string]int64{}
				p.KernelSamples = map[string]int64{}
			}
			p.KernelNS[name] = f.prof.kernelNS[k]
			p.KernelSampleElems[name] = f.prof.kernelSampElems[k]
			p.KernelSamples[name] = n
		}
	}
	// Clone round-trips through Merge, which sorts buckets hottest-first.
	return p.Clone()
}
