// Package graph provides the input-graph substrate for DecoMine: an
// immutable undirected graph in CSR (compressed sparse row) form with
// sorted adjacency lists, optional vertex labels, loaders for edge-list
// text formats, synthetic generators used by the experiment harness, and
// uniform edge sampling for the approximate-mining cost model.
//
// The offsets/adjacency arrays are either heap-resident (Build) or
// read-only windows of an mmap-backed slab file (slabfile.go), so graphs
// larger than RAM mine out-of-core. Accessors cannot tell the two apart.
//
// Build renumbers every graph by (degree, input ID) ascending, so every
// method here speaks internal IDs; InputID and InternalID translate at
// the public edge.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is an immutable undirected simple graph in CSR form. Adjacency
// lists are strictly increasing, duplicate edges and self loops have been
// removed at construction. Vertex IDs are dense in [0, NumVertices) and
// internal: Build numbers vertices by (degree, input ID) ascending, so
// internal degrees never decrease with ID. Every method takes and
// returns internal IDs; order and rank translate to and from the IDs
// the graph was built from. A labeled graph also gets a label index
// (LabelIndex) the first time a label filter asks for one: the
// adjacency grouped by (label, ID), so that NeighborsWithLabel is a
// slice of it, plus the per-label vertex lists. It lives on the heap
// even when the CSR is mapped, and unlabeled graphs never build one.
type Graph struct {
	// offsets has NumVertices+1 prefix sums into adj, which holds every
	// adjacency list in vertex-ID order (2|E| entries).
	offsets []int64
	adj     []uint32
	// split[v] is how many neighbors of v have IDs below v: the offset
	// in N(v) where NeighborsAbove starts. One array per graph, built at
	// Build and at slab open, shared by shallow copies.
	split  []uint32
	labels []uint32 // optional; nil for unlabeled graphs
	// order maps internal ID to input ID and rank input ID to internal
	// ID; both have NumVertices entries.
	order []uint32
	rank  []uint32
	name  string
	// maxDeg/avgDeg/numLabels are cached at Build time: all sit on hot
	// configuration paths (VM arena sizing, hub threshold selection,
	// cost-model statistics).
	maxDeg    int
	avgDeg    float64
	numLabels int
	// hub holds the hub bitmap index (see hubindex.go), shared by
	// shallow copies since labels and names do not affect adjacency.
	hub *hubState
	// ids holds the identity slice behind Vertices and lix the label
	// index behind VerticesWithLabel and NeighborsWithLabel (see
	// labelindex.go), each built once on first use. Shallow copies share
	// both; a copy that changes labels gets a fresh lix (setLabels).
	ids *vertexIDs
	lix *labelIndexOnce
	// mapping owns the file mapping for mmap-backed graphs; nil for
	// heap graphs.
	mapping *mapping
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// Name returns the dataset name attached at construction (may be empty).
func (g *Graph) Name() string { return g.name }

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborsAbove returns N(v) ∩ {x > v}, the oriented neighbor list of
// v, as a subslice of Neighbors(v) in O(1). It must not be modified.
func (g *Graph) NeighborsAbove(v uint32) []uint32 {
	return g.adj[g.offsets[v]+int64(g.split[v]) : g.offsets[v+1]]
}

// NeighborsBelow returns N(v) ∩ {x < v} as a subslice of Neighbors(v)
// in O(1). It must not be modified.
func (g *Graph) NeighborsBelow(v uint32) []uint32 {
	return g.adj[g.offsets[v] : g.offsets[v]+int64(g.split[v])]
}

// splitOffsets returns, for every vertex v of a CSR with sorted lists
// and no self-loops, the number of neighbors of v below v.
func splitOffsets(offsets []int64, adj []uint32) []uint32 {
	split := make([]uint32, len(offsets)-1)
	for v := range split {
		i, _ := slices.BinarySearch(adj[offsets[v]:offsets[v+1]], uint32(v))
		split[v] = uint32(i)
	}
	return split
}

// Degree returns deg(v).
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// HasEdge reports whether {u,v} is an edge, via binary search on the
// smaller adjacency list.
func (g *Graph) HasEdge(u, v uint32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	n := g.Neighbors(u)
	i := sort.Search(len(n), func(i int) bool { return n[i] >= v })
	return i < len(n) && n[i] == v
}

// InputID returns the input ID of internal vertex v.
func (g *Graph) InputID(v uint32) uint32 { return g.order[v] }

// InternalID returns the internal ID of input vertex x.
func (g *Graph) InternalID(x uint32) uint32 { return g.rank[x] }

// Labeled reports whether the graph carries vertex labels.
func (g *Graph) Labeled() bool { return g.labels != nil }

// Label returns the label of v, or 0 for unlabeled graphs.
func (g *Graph) Label(v uint32) uint32 {
	if g.labels == nil {
		return 0
	}
	return g.labels[v]
}

// NumLabels returns the number of distinct labels (0 for unlabeled
// graphs), cached at construction.
func (g *Graph) NumLabels() int { return g.numLabels }

// countLabels computes the distinct-label count cached in numLabels.
func countLabels(labels []uint32) int {
	if labels == nil {
		return 0
	}
	seen := make(map[uint32]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// setLabels attaches labels indexed by input ID, permuting them into
// internal order, and refreshes the cached distinct count. Internal: the
// public immutability contract still holds for finished graphs handed to
// the engine.
func (g *Graph) setLabels(labels []uint32) {
	g.labels = make([]uint32, len(labels))
	for v, x := range g.order {
		g.labels[v] = labels[x]
	}
	g.numLabels = countLabels(g.labels)
	g.lix = &labelIndexOnce{}
}

// vertexIDs holds the identity slice [0, |V|) behind Vertices.
type vertexIDs struct {
	once sync.Once
	ids  []uint32
}

// Vertices returns the sorted identity slice 0, 1, ..., |V|-1. It is
// built once per graph and shared by every caller (and by shallow
// copies); it must not be modified.
func (g *Graph) Vertices() []uint32 {
	g.ids.once.Do(func() {
		ids := make([]uint32, g.NumVertices())
		for i := range ids {
			ids[i] = uint32(i)
		}
		g.ids.ids = ids
	})
	return g.ids.ids
}

// VerticesWithLabel returns the sorted vertices v with Label(v) == l:
// all of them for label 0 of an unlabeled graph, none for a label no
// vertex carries. For a labeled graph the lists are part of the label
// index (LabelIndex), built once per labeling and shared by every
// caller; they must not be modified.
func (g *Graph) VerticesWithLabel(l uint32) []uint32 {
	if g.labels == nil {
		if l == 0 {
			return g.Vertices()
		}
		return nil
	}
	return g.LabelIndex().Vertices(l)
}

// MaxDegree returns the maximum vertex degree (cached at Build time).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// AvgDegree returns 2|E|/|V| (cached at Build time).
func (g *Graph) AvgDegree() float64 { return g.avgDeg }

// String summarizes the graph for logs and experiment output.
func (g *Graph) String() string {
	lbl := ""
	if g.Labeled() {
		lbl = fmt.Sprintf(", %d labels", g.NumLabels())
	}
	return fmt.Sprintf("%s(|V|=%d, |E|=%d%s)", g.nonEmptyName(), g.NumVertices(), g.NumEdges(), lbl)
}

func (g *Graph) nonEmptyName() string {
	if g.name == "" {
		return "graph"
	}
	return g.name
}

// Edges calls fn for every undirected edge (u < v). Used by samplers,
// converters and tests; not on the mining hot path.
func (g *Graph) Edges(fn func(u, v uint32)) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if uint32(u) < v {
				fn(uint32(u), v)
			}
		}
	}
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are accepted and dropped at Build time, matching the paper's
// preprocessing ("we preprocessed all datasets to delete duplicated edges
// and self-loops").
type Builder struct {
	n      int
	src    []uint32
	dst    []uint32
	labels []uint32
	name   string
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// SetName attaches a dataset name.
func (b *Builder) SetName(name string) *Builder {
	b.name = name
	return b
}

// AddEdge records an undirected edge; out-of-range endpoints grow the
// vertex count.
func (b *Builder) AddEdge(u, v uint32) {
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
}

// SetLabels attaches per-vertex labels; len must equal the final vertex
// count at Build time.
func (b *Builder) SetLabels(labels []uint32) *Builder {
	b.labels = labels
	return b
}

// Build materializes the CSR graph and renumbers its vertices by
// (degree, input ID) ascending. Labels set with SetLabels are indexed
// by input ID.
func (b *Builder) Build() (*Graph, error) {
	if b.labels != nil && len(b.labels) != b.n {
		return nil, fmt.Errorf("graph: %d labels for %d vertices", len(b.labels), b.n)
	}
	// Count directed degrees (both directions), skipping self loops.
	offsets := make([]int64, b.n+1)
	for i := range b.src {
		u, v := b.src[i], b.dst[i]
		if u == v {
			continue
		}
		offsets[u+1]++
		offsets[v+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	adj := make([]uint32, offsets[b.n])
	cursor := make([]int64, b.n)
	copy(cursor, offsets[:b.n])
	for i := range b.src {
		u, v := b.src[i], b.dst[i]
		if u == v {
			continue
		}
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	// Sort each adjacency list and drop duplicates in place, compacting
	// offsets as we go: offsets[v+1] is still the old bound when v is
	// compacted.
	w := int64(0)
	maxDeg := 0
	for v := 0; v < b.n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		lst := adj[lo:hi]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		offsets[v] = w
		var prev uint32
		first := true
		for _, x := range lst {
			if first || x != prev {
				adj[w] = x
				w++
				prev = x
				first = false
			}
		}
		if d := int(w - offsets[v]); d > maxDeg {
			maxDeg = d
		}
	}
	offsets[b.n] = w
	order, rank := degreeOrder(offsets, maxDeg)
	offsets, adjOut := renumber(offsets, adj[:w], order, rank)
	g := &Graph{
		offsets: offsets,
		adj:     adjOut,
		split:   splitOffsets(offsets, adjOut),
		order:   order,
		rank:    rank,
		name:    b.name,
		maxDeg:  maxDeg,
		hub:     &hubState{},
		ids:     &vertexIDs{},
		lix:     &labelIndexOnce{},
	}
	if b.labels != nil {
		g.setLabels(b.labels)
	}
	if b.n > 0 {
		g.avgDeg = float64(w) / float64(b.n)
	}
	// Hub bitmap index: built here (not lazily) so the immutable Graph
	// contract holds on the mining hot path. With no vertex at the
	// default threshold this costs one degree scan and keeps no rows.
	if g.maxDeg >= g.DefaultHubThreshold() {
		g.hub.idx.Store(buildHubIndex(g, g.DefaultHubThreshold()))
	}
	return g, nil
}

// degreeOrder sorts the vertices of a CSR by (degree, ID) with one
// counting sort, which is stable in ID, and returns the permutation
// both ways: order[internal] = input and rank[input] = internal.
func degreeOrder(offsets []int64, maxDeg int) (order, rank []uint32) {
	n := len(offsets) - 1
	start := make([]uint32, maxDeg+2)
	for v := 0; v < n; v++ {
		start[offsets[v+1]-offsets[v]+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	order = make([]uint32, n)
	rank = make([]uint32, n)
	for v := 0; v < n; v++ {
		d := offsets[v+1] - offsets[v]
		rank[v] = start[d]
		order[start[d]] = uint32(v)
		start[d]++
	}
	return order, rank
}

// renumber rewrites a CSR in input IDs into internal IDs. Walking the
// internal vertices u in ascending order and appending u to the list
// of each neighbor leaves every list sorted without a sort.
func renumber(offsets []int64, adj, order, rank []uint32) ([]int64, []uint32) {
	n := len(order)
	out := make([]int64, n+1)
	for v, x := range order {
		out[v+1] = out[v] + offsets[x+1] - offsets[x]
	}
	cursor := slices.Clone(out[:n])
	outAdj := make([]uint32, len(adj))
	for u, x := range order {
		for _, y := range adj[offsets[x]:offsets[x+1]] {
			w := rank[y]
			outAdj[cursor[w]] = uint32(u)
			cursor[w]++
		}
	}
	return out, outAdj
}

// FromEdges builds a graph from a flat edge list. Convenience for tests.
func FromEdges(n int, edges [][2]uint32) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // unreachable: no labels attached
	}
	return g
}
