// Package decomine is a compilation-based graph pattern mining (GPM)
// system with pattern decomposition, reproducing "DecoMine: A
// Compilation-Based Graph Pattern Mining System with Pattern
// Decomposition" (Chen & Qian, ASPLOS 2023).
//
// The public API mirrors the paper's (Figure 8): GetPatternCount for
// pattern counting, ProcessPartialEmbeddings for UDFs over partial
// embeddings, and Materialize for bounded expansion of a partial
// embedding into whole-pattern embeddings. Higher-level applications —
// motif counting, frequent subgraph mining, pseudo-clique counting,
// cycle mining and label-constrained queries — are built on those
// primitives and exposed as System methods.
//
// A quick start:
//
//	g, _ := decomine.Dataset("wk")
//	sys := decomine.NewSystem(g, decomine.Options{})
//	p, _ := decomine.PatternByName("cycle-5")
//	count, _ := sys.GetPatternCount(p)
package decomine

import (
	"io"

	"decomine/internal/graph"
)

// Graph is an immutable undirected input graph. Its methods and every
// vertex ID the System hands out (PartialEmbedding.Vertices,
// Materialize) speak the IDs the graph was built or loaded with; the
// engine mines a copy renumbered by degree, and IDs are translated only
// here at the public edge.
type Graph struct {
	g *graph.Graph
}

// LoadGraph reads an edge-list file ("u v" per line, '#' comments). A
// companion "<path>.labels" file (one integer per vertex) attaches
// vertex labels when present.
func LoadGraph(path string) (*Graph, error) {
	g, err := graph.LoadEdgeListFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g}, nil
}

// ReadGraph reads an edge list from a stream.
func ReadGraph(r io.Reader, name string) (*Graph, error) {
	g, err := graph.LoadEdgeList(r, name)
	if err != nil {
		return nil, err
	}
	return &Graph{g}, nil
}

// NewGraph builds a graph from an explicit edge list. Duplicate edges
// and self-loops are dropped.
func NewGraph(numVertices int, edges [][2]uint32) *Graph {
	return &Graph{graph.FromEdges(numVertices, edges)}
}

// NewLabeledGraph builds a vertex-labeled graph; len(labels) must equal
// the number of vertices.
func NewLabeledGraph(numVertices int, edges [][2]uint32, labels []uint32) (*Graph, error) {
	b := graph.NewBuilder(numVertices)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.SetLabels(labels)
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Graph{g}, nil
}

// Dataset returns one of the builtin synthetic benchmark datasets (cs,
// ee, wk, mc, pt, lj, fr, rmat) — deterministic analogues of the paper's
// SNAP datasets (see DESIGN.md).
func Dataset(name string) (*Graph, error) {
	g, err := graph.Dataset(name)
	if err != nil {
		return nil, err
	}
	return &Graph{g}, nil
}

// GenerateRMAT synthesizes a power-law R-MAT graph with 2^scale vertices
// and ~2^scale x edgeFactor edges.
func GenerateRMAT(scale, edgeFactor int, seed int64) *Graph {
	return &Graph{graph.RMAT(scale, edgeFactor, seed)}
}

// GenerateGNP synthesizes an Erdős–Rényi G(n,p) graph.
func GenerateGNP(n int, p float64, seed int64) *Graph {
	return &Graph{graph.GNP(n, p, seed)}
}

// GenerateSmallWorld synthesizes a Watts–Strogatz-style ring lattice
// with k neighbors per side and rewiring probability beta — high local
// clustering, the regime where the locality-aware cost model matters.
func GenerateSmallWorld(n, k int, beta float64, seed int64) *Graph {
	return &Graph{graph.SmallWorld(n, k, beta, seed)}
}

// GenerateCommunity synthesizes an overlapping-cliques community graph:
// each vertex joins `memberships` random communities of `size` members,
// and every community is a clique. Near-uniform degree (no hubs) with
// extreme local clustering — the workload family where auxiliary-graph
// materialization wins.
func GenerateCommunity(n, memberships, size int, seed int64) *Graph {
	return &Graph{graph.Community(n, memberships, size, seed)}
}

// WithRandomLabels returns a copy of the graph with numLabels synthetic
// Zipf-distributed vertex labels.
func (g *Graph) WithRandomLabels(numLabels int, seed int64) *Graph {
	return &Graph{g.g.WithRandomLabels(numLabels, seed)}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int64 { return g.g.NumEdges() }

// Labeled reports whether the graph carries vertex labels.
func (g *Graph) Labeled() bool { return g.g.Labeled() }

// Label returns the label of vertex v (0 for unlabeled graphs).
func (g *Graph) Label(v uint32) uint32 { return g.g.Label(g.g.InternalID(v)) }

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v uint32) bool {
	return g.g.HasEdge(g.g.InternalID(u), g.g.InternalID(v))
}

// MaxDegree returns the largest vertex degree (cached at build time).
func (g *Graph) MaxDegree() int { return g.g.MaxDegree() }

// AvgDegree returns the average vertex degree 2|E|/|V| (cached at build
// time).
func (g *Graph) AvgDegree() float64 { return g.g.AvgDegree() }

// BuildHubIndex (re)builds the graph's hub bitmap index — packed
// adjacency bitmaps for every vertex of degree >= minDegree, consulted
// by the VM's intersect/subtract dispatch to replace sorted-array
// merges with O(min) bitmap filters. minDegree <= 0 selects the default
// threshold max(256, 8·AvgDegree). Graphs whose maximum degree reaches
// the default threshold are indexed automatically at build time; call
// this to lower the threshold on mildly skewed graphs or to widen
// coverage. Returns g for chaining.
func (g *Graph) BuildHubIndex(minDegree int) *Graph {
	g.g.BuildHubIndex(minDegree)
	return g
}

// String summarizes the graph.
func (g *Graph) String() string { return g.g.String() }

// WriteEdgeList serializes the graph in the loadable edge-list format,
// in the graph's own vertex IDs.
func (g *Graph) WriteEdgeList(w io.Writer) error { return g.g.WriteInputEdgeList(w) }

// Mapped reports whether the graph is mmap-backed (OpenMappedGraph).
func (g *Graph) Mapped() bool { return g.g.Mapped() }

// Close releases an mmap-backed graph's file mapping; it is a no-op for
// in-memory graphs. The graph must not be used after Close.
func (g *Graph) Close() error { return g.g.Close() }

// WriteSlabFile serializes the graph to the binary slab-file format
// that OpenMappedGraph serves via mmap without parsing.
func (g *Graph) WriteSlabFile(path string) error { return g.g.WriteSlabFile(path) }

// OpenMappedGraph opens a slab file written by WriteSlabFile as an
// mmap-backed out-of-core graph: adjacency pages in on demand and is
// evicted under memory pressure instead of occupying the Go heap, so
// graphs larger than RAM (or than GOMEMLIMIT) mine with unchanged
// results. A corrupted file is rejected with an error. Call Close when
// done.
func OpenMappedGraph(path string) (*Graph, error) {
	g, err := graph.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g}, nil
}
