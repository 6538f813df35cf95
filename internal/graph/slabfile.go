package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"unsafe"
)

// Slab file format ("DMSLAB03"), the on-disk twin of the in-memory CSR
// for out-of-core mining: the degree-ordered arrays Build produces plus
// the permutation between internal and input IDs. All integers are
// little-endian and the arrays are in native layout, so OpenMapped
// serves them zero-copy through mmap. Sections, each starting 8-byte
// aligned:
//
//	header (32 B): magic "DMSLAB03", flags (bit0 = labeled),
//	  numVertices, adjTotal — uint64
//	name: uint64 length + bytes, zero-padded to 8
//	labels (iff flags bit0): numVertices × uint32 in internal order,
//	  zero-padded to 8
//	order: numVertices × uint32 (internal → input), zero-padded to 8
//	rank: numVertices × uint32 (input → internal), zero-padded to 8
//	offsets: (numVertices+1) × int64
//	adjacency: adjTotal × uint32, zero-padded to 8
//
// OpenMapped checks the permutation and every offset and neighbor ID
// once at open, so a corrupted file is rejected with an error instead
// of making accessors panic later. The split offsets behind
// NeighborsAbove/NeighborsBelow are derived, not stored: open rebuilds
// them on the heap, one uint32 per vertex.
const slabMagic = "DMSLAB03"

// retiredSlabMagics are earlier layouts, recognized only to ask for
// regeneration: the partitioned layout (slab table plus per-vertex slab
// maps) and the CSR in input IDs without a permutation.
var retiredSlabMagics = []string{"DMSLAB01", "DMSLAB02"}

const slabHeaderSize = 32

const slabFlagLabeled = 1

// mapping owns the byte range backing an mmap-backed graph's arrays.
type mapping struct {
	data  []byte
	unmap func([]byte) error
}

func (m *mapping) close() error {
	d := m.data
	m.data = nil
	if m.unmap == nil || d == nil {
		return nil
	}
	return m.unmap(d)
}

func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

func pad8(n int64) int64 { return (n + 7) &^ 7 }

// slabWriter wraps a bufio.Writer with little-endian element encoding
// and position tracking for the section layout.
type slabWriter struct {
	w       *bufio.Writer
	pos     int64
	err     error
	scratch []byte
}

func (sw *slabWriter) raw(b []byte) {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(b)
	sw.pos += int64(len(b))
}

func (sw *slabWriter) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	sw.raw(b[:])
}

func (sw *slabWriter) pad() {
	if rem := sw.pos & 7; rem != 0 {
		var z [8]byte
		sw.raw(z[:8-rem])
	}
}

func (sw *slabWriter) u32s(xs []uint32) {
	if sw.scratch == nil {
		sw.scratch = make([]byte, 1<<16)
	}
	for len(xs) > 0 {
		n := len(sw.scratch) / 4
		if n > len(xs) {
			n = len(xs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(sw.scratch[i*4:], xs[i])
		}
		sw.raw(sw.scratch[:n*4])
		xs = xs[n:]
	}
}

func (sw *slabWriter) i64s(xs []int64) {
	if sw.scratch == nil {
		sw.scratch = make([]byte, 1<<16)
	}
	for len(xs) > 0 {
		n := len(sw.scratch) / 8
		if n > len(xs) {
			n = len(xs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(sw.scratch[i*8:], uint64(xs[i]))
		}
		sw.raw(sw.scratch[:n*8])
		xs = xs[n:]
	}
}

// WriteSlabFile serializes the graph to a binary slab file that
// OpenMapped can serve via mmap without parsing.
func (g *Graph) WriteSlabFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw := &slabWriter{w: bufio.NewWriterSize(f, 1<<20)}
	var flags uint64
	if g.labels != nil {
		flags |= slabFlagLabeled
	}
	sw.raw([]byte(slabMagic))
	sw.u64(flags)
	sw.u64(uint64(g.NumVertices()))
	sw.u64(uint64(len(g.adj)))
	sw.u64(uint64(len(g.name)))
	sw.raw([]byte(g.name))
	sw.pad()
	if g.labels != nil {
		sw.u32s(g.labels)
		sw.pad()
	}
	sw.u32s(g.order)
	sw.pad()
	sw.u32s(g.rank)
	sw.pad()
	sw.i64s(g.offsets)
	sw.u32s(g.adj)
	sw.pad()
	if sw.err == nil {
		sw.err = sw.w.Flush()
	}
	if cerr := f.Close(); sw.err == nil {
		sw.err = cerr
	}
	return sw.err
}

// slabReader walks a mapped slab file with bounds checking.
type slabReader struct {
	data []byte
	pos  int64
}

func (sr *slabReader) take(n int64) ([]byte, error) {
	if n < 0 || sr.pos+n > int64(len(sr.data)) {
		return nil, fmt.Errorf("graph: slab file truncated at offset %d (+%d of %d)", sr.pos, n, len(sr.data))
	}
	b := sr.data[sr.pos : sr.pos+n]
	sr.pos += n
	return b, nil
}

func (sr *slabReader) u64() (uint64, error) {
	b, err := sr.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (sr *slabReader) pad() { sr.pos = pad8(sr.pos) }

// u32s takes an 8-byte-padded section of n uint32s as a window of the
// mapping (non-nil even when empty).
func (sr *slabReader) u32s(n int64) ([]uint32, error) {
	b, err := sr.take(n * 4)
	if err != nil {
		return nil, err
	}
	sr.pad()
	if n == 0 {
		return []uint32{}, nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), nil
}

// OpenMapped opens a slab file written by WriteSlabFile and returns a
// graph whose arrays are read-only windows of the file mapping: the
// kernel pages adjacency in on demand and evicts it under memory
// pressure, so the graph can be far larger than RAM (and than
// GOMEMLIMIT — mapped pages are not Go heap). Close releases the
// mapping. On platforms without mmap the file is read into the heap
// instead, same semantics minus the out-of-core behavior.
func OpenMapped(path string) (*Graph, error) {
	if !hostLittleEndian() {
		return nil, fmt.Errorf("graph: slab files are little-endian; unsupported on big-endian hosts")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < slabHeaderSize {
		return nil, fmt.Errorf("graph: %s: too small for a slab file", path)
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("graph: mapping %s: %v", path, err)
	}
	m := &mapping{data: data, unmap: unmap}
	g, err := decodeSlabFile(data)
	if err != nil {
		m.close()
		return nil, fmt.Errorf("graph: %s: %v", path, err)
	}
	g.mapping = m
	return g, nil
}

func decodeSlabFile(data []byte) (*Graph, error) {
	sr := &slabReader{data: data}
	magic, err := sr.take(8)
	if err != nil {
		return nil, err
	}
	if string(magic) != slabMagic {
		if slices.Contains(retiredSlabMagics, string(magic)) {
			return nil, fmt.Errorf("%s is a retired slab format; regenerate the file with graphgen -format slab", magic)
		}
		return nil, fmt.Errorf("bad magic %q (want %q)", magic, slabMagic)
	}
	var hdr [4]uint64
	for i := range hdr {
		if hdr[i], err = sr.u64(); err != nil {
			return nil, err
		}
	}
	flags, n64, adjTotal, nameLen := hdr[0], hdr[1], hdr[2], hdr[3]
	if flags&^uint64(slabFlagLabeled) != 0 {
		return nil, fmt.Errorf("unknown flags %#x", flags)
	}
	if n64 >= math.MaxUint32 {
		return nil, fmt.Errorf("%d vertices exceeds uint32 IDs", n64)
	}
	if adjTotal > uint64(len(data))/4 {
		return nil, fmt.Errorf("%d adjacency entries exceed a file of %d bytes", adjTotal, len(data))
	}
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("name length %d implausible", nameLen)
	}
	n := int64(n64)
	name, err := sr.take(int64(nameLen))
	if err != nil {
		return nil, err
	}
	sr.pad()
	var labels []uint32
	if flags&slabFlagLabeled != 0 {
		if labels, err = sr.u32s(n); err != nil {
			return nil, err
		}
	}
	order, err := sr.u32s(n)
	if err != nil {
		return nil, err
	}
	rank, err := sr.u32s(n)
	if err != nil {
		return nil, err
	}
	if err := checkPermutation(order, rank); err != nil {
		return nil, err
	}
	oBytes, err := sr.take((n + 1) * 8)
	if err != nil {
		return nil, err
	}
	aBytes, err := sr.take(int64(adjTotal) * 4)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		offsets:   unsafe.Slice((*int64)(unsafe.Pointer(&oBytes[0])), n+1),
		adj:       []uint32{},
		labels:    labels,
		order:     order,
		rank:      rank,
		name:      string(name),
		numLabels: countLabels(labels),
		hub:       &hubState{},
		ids:       &vertexIDs{},
		lix:       &labelIndexOnce{},
	}
	if adjTotal > 0 {
		g.adj = unsafe.Slice((*uint32)(unsafe.Pointer(&aBytes[0])), adjTotal)
	}
	if g.maxDeg, err = checkCSR(g.offsets, g.adj); err != nil {
		return nil, err
	}
	g.split = splitOffsets(g.offsets, g.adj)
	if n > 0 {
		g.avgDeg = float64(adjTotal) / float64(n)
	}
	// Hub bitmap index lives in the heap (it is derived, not stored):
	// rebuild with the same rule Build uses.
	if g.maxDeg >= g.DefaultHubThreshold() {
		g.hub.idx.Store(buildHubIndex(g, g.DefaultHubThreshold()))
	}
	return g, nil
}

// checkPermutation validates the vertex order read from a file: order
// maps into [0, |V|) and rank undoes it, which makes both bijections.
func checkPermutation(order, rank []uint32) error {
	for v, x := range order {
		if int64(x) >= int64(len(rank)) || rank[x] != uint32(v) {
			return fmt.Errorf("vertex %d: order and rank are not inverse permutations", v)
		}
	}
	return nil
}

// checkCSR validates a CSR read from a file in one pass over offsets
// and adjacency — offsets run non-decreasing from 0 to len(adj), every
// list is strictly increasing, in range and free of self-loops, and
// degrees never decrease along IDs (the order Build renumbers into,
// which the hub index relies on) — and returns the maximum degree.
func checkCSR(offsets []int64, adj []uint32) (maxDeg int, err error) {
	n := len(offsets) - 1
	if offsets[0] != 0 || offsets[n] != int64(len(adj)) {
		return 0, fmt.Errorf("offsets span [%d,%d], want [0,%d]", offsets[0], offsets[n], len(adj))
	}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if hi < lo || hi > int64(len(adj)) {
			return 0, fmt.Errorf("vertex %d: offsets %d..%d decrease or pass the adjacency", v, lo, hi)
		}
		prev := int64(-1)
		for _, x := range adj[lo:hi] {
			switch {
			case int64(x) >= int64(n):
				return 0, fmt.Errorf("vertex %d: neighbor %d out of range (|V| = %d)", v, x, n)
			case int64(x) <= prev:
				return 0, fmt.Errorf("vertex %d: adjacency not strictly increasing at %d", v, x)
			case int(x) == v:
				return 0, fmt.Errorf("vertex %d: self-loop", v)
			}
			prev = int64(x)
		}
		d := int(hi - lo)
		if d < maxDeg {
			return 0, fmt.Errorf("vertex %d: degree %d after degree %d, not in degree order", v, d, maxDeg)
		}
		maxDeg = d
	}
	return maxDeg, nil
}

// Mapped reports whether the graph's arrays are mmap-backed (opened with
// OpenMapped) rather than heap-resident.
func (g *Graph) Mapped() bool { return g.mapping != nil }

// Close releases an mmap-backed graph's file mapping. It is a no-op for
// heap graphs. The graph (and every shallow copy sharing its arrays)
// must not be used after Close.
func (g *Graph) Close() error {
	if g.mapping == nil {
		return nil
	}
	m := g.mapping
	g.mapping = nil
	return m.close()
}
