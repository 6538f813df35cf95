package obs

// VM execution profiles. The engine's sampling profiler attributes wall
// time to (opcode × loop depth × kernel path) buckets — see
// internal/engine — and publishes one Profile per run; this file holds
// the merged representation, a process-wide accumulator behind the
// /debug/profile endpoint, and the two export formats: a flame-graph
// JSON tree and a gzipped pprof protocol-buffer dump (hand-encoded, no
// external dependencies).

import (
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// ProfileBucket is one attribution cell: wall time sampled while the VM
// was executing opcode Op at loop depth Depth, with Kernel naming the
// set-kernel path of the last intersect/subtract dispatch ("" for
// non-kernel opcodes).
type ProfileBucket struct {
	Op      string `json:"op"`
	Depth   int    `json:"depth"`
	Kernel  string `json:"kernel,omitempty"`
	NS      int64  `json:"ns"`
	Samples int64  `json:"samples"`
}

// Profile is a merged sampling profile: the per-bucket wall-time
// attribution plus the exact per-opcode instruction counts, the
// clean-up pass's elided instructions, and kernel dispatch/element
// counts.
type Profile struct {
	// TotalNS is the summed attributed wall time; Samples the number of
	// attribution windows (fuel expiries plus piece-boundary flushes).
	TotalNS int64           `json:"total_ns"`
	Samples int64           `json:"samples"`
	Buckets []ProfileBucket `json:"buckets,omitempty"`
	// Ops counts executed instructions per opcode (exact, not sampled).
	Ops map[string]int64 `json:"ops,omitempty"`
	// Elided counts the instructions the bytecode clean-up pass spared
	// the run: what the uncleaned program would have executed beyond
	// Ops (exact outside conditionals). The cost model prices those too.
	Elided int64 `json:"elided,omitempty"`
	// Kernels / KernelElems count kernel dispatches and the elements
	// they processed (exact, schedule-invariant).
	Kernels     map[string]int64 `json:"kernels,omitempty"`
	KernelElems map[string]int64 `json:"kernel_elems,omitempty"`
}

type profKey struct {
	op     string
	depth  int
	kernel string
}

func addMap(dst *map[string]int64, src map[string]int64, sign int64) {
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = map[string]int64{}
	}
	for k, v := range src {
		if n := (*dst)[k] + sign*v; n != 0 {
			(*dst)[k] = n
		} else {
			delete(*dst, k)
		}
	}
}

// Merge folds o into p (bucket-wise addition).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	p.TotalNS += o.TotalNS
	p.Samples += o.Samples
	p.Elided += o.Elided
	idx := make(map[profKey]int, len(p.Buckets))
	for i, b := range p.Buckets {
		idx[profKey{b.Op, b.Depth, b.Kernel}] = i
	}
	for _, b := range o.Buckets {
		k := profKey{b.Op, b.Depth, b.Kernel}
		if i, ok := idx[k]; ok {
			p.Buckets[i].NS += b.NS
			p.Buckets[i].Samples += b.Samples
		} else {
			idx[k] = len(p.Buckets)
			p.Buckets = append(p.Buckets, b)
		}
	}
	addMap(&p.Ops, o.Ops, 1)
	addMap(&p.Kernels, o.Kernels, 1)
	addMap(&p.KernelElems, o.KernelElems, 1)
	p.sort()
}

// Diff returns p minus base (bucket-wise), for callers that bracket a
// workload with GlobalProfile snapshots the way tests bracket registry
// snapshots.
func (p *Profile) Diff(base *Profile) *Profile {
	out := &Profile{TotalNS: p.TotalNS, Samples: p.Samples, Elided: p.Elided}
	sub := map[profKey]ProfileBucket{}
	if base != nil {
		out.TotalNS -= base.TotalNS
		out.Samples -= base.Samples
		out.Elided -= base.Elided
		for _, b := range base.Buckets {
			sub[profKey{b.Op, b.Depth, b.Kernel}] = b
		}
	}
	for _, b := range p.Buckets {
		if s, ok := sub[profKey{b.Op, b.Depth, b.Kernel}]; ok {
			b.NS -= s.NS
			b.Samples -= s.Samples
		}
		if b.NS != 0 || b.Samples != 0 {
			out.Buckets = append(out.Buckets, b)
		}
	}
	addMap(&out.Ops, p.Ops, 1)
	addMap(&out.Kernels, p.Kernels, 1)
	addMap(&out.KernelElems, p.KernelElems, 1)
	if base != nil {
		addMap(&out.Ops, base.Ops, -1)
		addMap(&out.Kernels, base.Kernels, -1)
		addMap(&out.KernelElems, base.KernelElems, -1)
	}
	out.sort()
	return out
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	out := &Profile{}
	out.Merge(p)
	return out
}

// sort orders buckets hottest-first (ties broken structurally) so JSON
// output is deterministic and readers see the hot cells up top.
func (p *Profile) sort() {
	sort.SliceStable(p.Buckets, func(i, j int) bool {
		a, b := p.Buckets[i], p.Buckets[j]
		if a.NS != b.NS {
			return a.NS > b.NS
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Kernel < b.Kernel
	})
}

// --- process-wide accumulator ---

var (
	profMu     sync.Mutex
	globalProf = &Profile{}
)

// AccumulateProfile folds one run's profile into the process-wide
// accumulator served by /debug/profile.
func AccumulateProfile(p *Profile) {
	if p == nil {
		return
	}
	profMu.Lock()
	defer profMu.Unlock()
	globalProf.Merge(p)
}

// GlobalProfile returns a deep copy of the accumulated profile.
func GlobalProfile() *Profile {
	profMu.Lock()
	defer profMu.Unlock()
	return globalProf.Clone()
}

// ResetGlobalProfile clears the accumulator (tests, benchmark brackets).
func ResetGlobalProfile() {
	profMu.Lock()
	defer profMu.Unlock()
	globalProf = &Profile{}
}

// --- flame-graph JSON ---

// FlameNode is a d3-flame-graph-style tree node: an internal node's
// Value is its subtree sum, so widths nest correctly.
type FlameNode struct {
	Name     string       `json:"name"`
	Value    int64        `json:"value"`
	Children []*FlameNode `json:"children,omitempty"`
}

func (n *FlameNode) child(name string) *FlameNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &FlameNode{Name: name}
	n.Children = append(n.Children, c)
	return c
}

// Flame renders the profile as a flame tree: root → one "depth k" frame
// per enclosing loop level → a leaf per opcode (suffixed with the
// kernel path for dispatch opcodes).
func (p *Profile) Flame() *FlameNode {
	root := &FlameNode{Name: "vm"}
	bs := append([]ProfileBucket(nil), p.Buckets...)
	sort.SliceStable(bs, func(i, j int) bool {
		a, b := bs[i], bs[j]
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Kernel < b.Kernel
	})
	for _, b := range bs {
		node := root
		for d := 0; d <= b.Depth; d++ {
			node = node.child(fmt.Sprintf("depth %d", d))
		}
		leaf := b.Op
		if b.Kernel != "" {
			leaf += " [" + b.Kernel + "]"
		}
		node.child(leaf).Value += b.NS
	}
	var sum func(n *FlameNode) int64
	sum = func(n *FlameNode) int64 {
		total := n.Value
		for _, c := range n.Children {
			total += sum(c)
		}
		n.Value = total
		return total
	}
	sum(root)
	return root
}

// --- pprof protobuf dump ---

// pbuf is a minimal protobuf wire-format writer: enough of proto3
// encoding (varints, length-delimited fields, packed repeated scalars)
// to emit a valid profile.proto without importing a protobuf library.
type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

func (p *pbuf) int64Field(field int, v int64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(uint64(v))
}

func (p *pbuf) bytesField(field int, b []byte) {
	p.tag(field, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) strField(field int, s string) {
	p.tag(field, 2)
	p.varint(uint64(len(s)))
	p.b = append(p.b, s...)
}

// packedInt64s emits a repeated int64/uint64 field in packed encoding.
func (p *pbuf) packedInt64s(field int, vs []int64) {
	var inner pbuf
	for _, v := range vs {
		inner.varint(uint64(v))
	}
	p.bytesField(field, inner.b)
}

// WritePprof writes the profile as a gzipped pprof profile.proto. Each
// bucket becomes a sample with values [samples, ns] and a synthetic
// stack: the opcode/kernel leaf under one frame per enclosing loop
// depth, so pprof's flame view mirrors Flame().
func (p *Profile) WritePprof(w io.Writer) error {
	strs := []string{""} // string_table[0] must be ""
	strIdx := map[string]int64{"": 0}
	intern := func(s string) int64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := int64(len(strs))
		strs = append(strs, s)
		strIdx[s] = i
		return i
	}

	var funcs pbuf // repeated Function (field 5)
	var locs pbuf  // repeated Location (field 4)
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	locFor := func(name string) uint64 {
		if id, ok := locID[name]; ok {
			return id
		}
		fid := uint64(len(funcID) + 1)
		funcID[name] = fid
		var fn pbuf
		fn.int64Field(1, int64(fid))
		fn.int64Field(2, intern(name))
		funcs.bytesField(5, fn.b)

		lid := uint64(len(locID) + 1)
		locID[name] = lid
		var line pbuf
		line.int64Field(1, int64(fid))
		line.int64Field(2, 1)
		var loc pbuf
		loc.int64Field(1, int64(lid))
		loc.bytesField(4, line.b)
		locs.bytesField(4, loc.b)
		return lid
	}

	var samples pbuf // repeated Sample (field 2)
	bs := append([]ProfileBucket(nil), p.Buckets...)
	sort.SliceStable(bs, func(i, j int) bool {
		a, b := bs[i], bs[j]
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Kernel < b.Kernel
	})
	for _, b := range bs {
		leaf := b.Op
		if b.Kernel != "" {
			leaf += " [" + b.Kernel + "]"
		}
		// pprof stacks are leaf-first.
		stack := []int64{int64(locFor(leaf))}
		for d := b.Depth; d >= 0; d-- {
			stack = append(stack, int64(locFor(fmt.Sprintf("depth %d", d))))
		}
		var s pbuf
		s.packedInt64s(1, stack)
		s.packedInt64s(2, []int64{b.Samples, b.NS})
		samples.bytesField(2, s.b)
	}

	var vtSamples, vtTime, periodT pbuf
	vtSamples.int64Field(1, intern("samples"))
	vtSamples.int64Field(2, intern("count"))
	vtTime.int64Field(1, intern("time"))
	vtTime.int64Field(2, intern("nanoseconds"))
	periodT.int64Field(1, intern("time"))
	periodT.int64Field(2, intern("nanoseconds"))

	var prof pbuf
	prof.bytesField(1, vtSamples.b)
	prof.bytesField(1, vtTime.b)
	prof.b = append(prof.b, samples.b...)
	prof.b = append(prof.b, locs.b...)
	prof.b = append(prof.b, funcs.b...)
	for _, s := range strs {
		prof.strField(6, s)
	}
	prof.int64Field(9, time.Now().UnixNano())
	prof.int64Field(10, p.TotalNS)
	prof.bytesField(11, periodT.b)
	prof.int64Field(12, 1)

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(prof.b); err != nil {
		return err
	}
	return gz.Close()
}
