package graph

import "sync/atomic"

// HubIndex is the dense/sparse hybrid adjacency structure behind the
// engine's bitmap set kernels: for every vertex whose degree meets a
// threshold ("hub"), a packed []uint64 bitmap row over all vertex IDs.
// Vertex IDs are in degree order, so the hubs are exactly the ID suffix
// [first, |V|) and hub v owns row v-first: memory stays O(hubs · |V|/64)
// instead of O(|V|²/64). The index is immutable after construction and
// safe to share across any number of concurrent readers.
type HubIndex struct {
	threshold int
	words     int    // uint64 words per row: ceil(|V|/64)
	first     uint32 // lowest hub ID; every vertex from it on is a hub
	rows      []uint64
	numHubs   int
	// coveredDeg is the sum of hub degrees: the number of directed
	// adjacency entries whose owning vertex has a bitmap row. Feeds the
	// cost model's hub-hit probability.
	coveredDeg int64
}

// Row returns v's bitmap adjacency row (bit u set iff {v,u} is an edge),
// or nil when v is not a hub. The slice aliases the index's storage and
// must not be modified.
func (ix *HubIndex) Row(v uint32) []uint64 {
	if v < ix.first {
		return nil
	}
	h := int(v - ix.first)
	return ix.rows[h*ix.words : (h+1)*ix.words]
}

// First returns the lowest hub ID: every vertex from it on is a hub.
func (ix *HubIndex) First() uint32 { return ix.first }

// Threshold returns the minimum degree for a vertex to get a bitmap row.
func (ix *HubIndex) Threshold() int { return ix.threshold }

// NumHubs returns how many vertices have bitmap rows.
func (ix *HubIndex) NumHubs() int { return ix.numHubs }

// Words returns the row width in uint64 words, ceil(|V|/64). A
// bitmap×bitmap popcount kernel touches exactly this many words.
func (ix *HubIndex) Words() int { return ix.words }

// CoveredDegree returns the sum of hub degrees.
func (ix *HubIndex) CoveredDegree() int64 { return ix.coveredDeg }

// MemBytes returns the index's storage footprint.
func (ix *HubIndex) MemBytes() int64 {
	return int64(len(ix.rows)) * 8
}

// hubState holds a graph's hub index behind an atomic pointer. It is a
// separate heap object (not inline in Graph) so the shallow-copy
// constructors (WithRandomLabels, Rename) share one index — labels and
// names do not affect adjacency — and so a BuildHubIndex rebuild is
// visible to every copy without copying atomics.
type hubState struct {
	idx atomic.Pointer[HubIndex]
}

// DefaultHubThreshold is the degree cutoff used when the index is built
// without an explicit threshold: max(256, 8·avgDeg). High enough that
// rows are rare (memory stays small) yet low enough to catch the hubs
// that dominate intersection time on power-law graphs.
func (g *Graph) DefaultHubThreshold() int {
	t := int(8 * g.AvgDegree())
	if t < 256 {
		t = 256
	}
	return t
}

// HubIndex returns the graph's hub bitmap index, or nil when no vertex
// meets the threshold (the common case for small or uniform graphs).
// Safe for concurrent use.
func (g *Graph) HubIndex() *HubIndex {
	if g.hub == nil {
		return nil
	}
	return g.hub.idx.Load()
}

// BuildHubIndex rebuilds the hub index with an explicit degree
// threshold, replacing the one built at construction time (minDegree <= 0
// selects the default threshold). It returns the new index, or nil when
// no vertex qualifies. Rebuilding while queries are running is safe —
// readers atomically see either index — but for reproducible kernel
// routing it should be called before mining starts.
func (g *Graph) BuildHubIndex(minDegree int) *HubIndex {
	if minDegree <= 0 {
		minDegree = g.DefaultHubThreshold()
	}
	if g.hub == nil {
		g.hub = &hubState{}
	}
	ix := buildHubIndex(g, minDegree)
	g.hub.idx.Store(ix)
	return ix
}

// buildHubIndex finds the hub suffix — degrees never decrease along
// IDs (Build renumbers by degree, slab files are checked for it) — and
// packs one bitmap row per hub. Returns nil when no vertex qualifies, so
// callers can test for "index present" with a nil check and pay nothing
// on hub-free graphs.
func buildHubIndex(g *Graph, threshold int) *HubIndex {
	n := g.NumVertices()
	first := n
	for first > 0 && g.Degree(uint32(first-1)) >= threshold {
		first--
	}
	if first == n {
		return nil
	}
	ix := &HubIndex{
		threshold: threshold,
		words:     (n + 63) / 64,
		first:     uint32(first),
		numHubs:   n - first,
	}
	ix.rows = make([]uint64, ix.numHubs*ix.words)
	for v := first; v < n; v++ {
		row := ix.Row(uint32(v))
		nbrs := g.Neighbors(uint32(v))
		for _, u := range nbrs {
			row[u>>6] |= 1 << (u & 63)
		}
		ix.coveredDeg += int64(len(nbrs))
	}
	return ix
}
