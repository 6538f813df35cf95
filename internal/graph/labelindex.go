package graph

import (
	"slices"
	"sync"
)

// LabelIndex is one labeling's index over a graph: the vertices of
// each label, and a label-grouped copy of the adjacency in which
// N(v) ∩ {label = l} is one contiguous run. Every row of the CSR is
// reordered by (label, ID) in one array of 2|E| entries, and each
// vertex keeps a run directory with one entry per distinct neighbor
// label: the label and the run's end, as an offset from the row start.
// Runs never outnumber neighbors, so the directory holds at most 2|E|
// entries whatever the label count. The index is immutable once built.
type LabelIndex struct {
	// vals are the distinct labels ascending; the vertices carrying
	// vals[i] are byLabel[first[i]:first[i+1]], ascending.
	vals    []uint32
	first   []int
	byLabel []uint32
	// offsets are the graph's CSR offsets (row v of adj starts where
	// row v of the graph does); adj is the label-grouped adjacency.
	offsets []int64
	adj     []uint32
	// runs[runOff[v]:runOff[v+1]] is v's run directory, ascending by
	// label.
	runOff []int64
	runs   []labelRun
}

// labelRun is one run directory entry: the neighbors of label `label`
// end at `end` positions past the row start, and start where the
// previous run of the row ends (or at the row start).
type labelRun struct {
	label, end uint32
}

// labelIndexOnce builds a labeling's LabelIndex on first use.
type labelIndexOnce struct {
	once sync.Once
	ix   *LabelIndex
}

// LabelIndex returns the graph's label index, building it on the heap
// on first use (for mapped graphs too); nil for an unlabeled graph.
// Shallow copies share it unless they change the labels.
func (g *Graph) LabelIndex() *LabelIndex {
	if g.labels == nil {
		return nil
	}
	g.lix.once.Do(func() { g.lix.ix = buildLabelIndex(g) })
	return g.lix.ix
}

// NeighborsWithLabel returns N(v) ∩ {x : Label(x) = l}, sorted by ID.
// The slice aliases graph storage and must not be modified. As with
// Label, an unlabeled graph labels every vertex 0: label 0 gives
// Neighbors(v) and any other label nil.
func (g *Graph) NeighborsWithLabel(v, l uint32) []uint32 {
	if g.labels == nil {
		if l == 0 {
			return g.Neighbors(v)
		}
		return nil
	}
	return g.LabelIndex().Neighbors(v, l)
}

// Neighbors returns the run of v's neighbors labeled l (nil when there
// are none), by a binary search of v's run directory.
func (ix *LabelIndex) Neighbors(v, l uint32) []uint32 {
	runs := ix.runs[ix.runOff[v]:ix.runOff[v+1]]
	lo, hi := 0, len(runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if runs[m].label < l {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(runs) || runs[lo].label != l {
		return nil
	}
	start := ix.offsets[v]
	end := start + int64(runs[lo].end)
	if lo > 0 {
		start += int64(runs[lo-1].end)
	}
	return ix.adj[start:end]
}

// Vertices returns the vertices labeled l, ascending (nil when none).
func (ix *LabelIndex) Vertices(l uint32) []uint32 {
	i, ok := slices.BinarySearch(ix.vals, l)
	if !ok {
		return nil
	}
	return ix.byLabel[ix.first[i]:ix.first[i+1]]
}

// buildLabelIndex groups g's vertices by label with a counting sort
// over the labels' ranks, then fills the grouped adjacency the way
// renumber fills the CSR: walking the vertices x in (label, ID) order
// and appending x to the row of each neighbor leaves every row in
// (label, ID) order without a sort.
func buildLabelIndex(g *Graph) *LabelIndex {
	n := g.NumVertices()
	vals := slices.Clone(g.labels)
	slices.Sort(vals)
	vals = slices.Clip(slices.Compact(vals))
	first := make([]int, len(vals)+1)
	rank := make([]uint32, n)
	for v, l := range g.labels {
		r, _ := slices.BinarySearch(vals, l)
		rank[v] = uint32(r)
		first[r+1]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	byLabel := make([]uint32, n)
	cursor := slices.Clone(first[:len(vals)])
	for v, r := range rank {
		byLabel[cursor[r]] = uint32(v)
		cursor[r]++
	}

	adj := make([]uint32, len(g.adj))
	row := slices.Clone(g.offsets[:n])
	for _, x := range byLabel {
		for _, y := range g.Neighbors(x) {
			adj[row[y]] = x
			row[y]++
		}
	}

	// A run starts wherever the rank changes along a row.
	runOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		row := adj[g.offsets[v]:g.offsets[v+1]]
		runOff[v+1] = runOff[v]
		for i, x := range row {
			if i == 0 || rank[x] != rank[row[i-1]] {
				runOff[v+1]++
			}
		}
	}
	runs := make([]labelRun, runOff[n])
	for v := 0; v < n; v++ {
		row := adj[g.offsets[v]:g.offsets[v+1]]
		next := runOff[v] - 1
		for i, x := range row {
			if i == 0 || rank[x] != rank[row[i-1]] {
				next++
			}
			runs[next] = labelRun{label: vals[rank[x]], end: uint32(i + 1)}
		}
	}
	return &LabelIndex{
		vals: vals, first: first, byLabel: byLabel,
		offsets: g.offsets, adj: adj,
		runOff: runOff, runs: runs,
	}
}
