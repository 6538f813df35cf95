package graph

import (
	"math"
	"math/rand"
)

// GNP generates an Erdős–Rényi G(n,p) random graph using geometric edge
// skipping (O(|E|) expected time), deterministic for a given seed.
func GNP(n int, p float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	b.SetName("gnp")
	if p <= 0 || n < 2 {
		g, _ := b.Build()
		return g
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(uint32(u), uint32(v))
			}
		}
		g, _ := b.Build()
		return g
	}
	logq := math.Log(1 - p)
	// Iterate over the upper-triangular pair index with geometric skips.
	var idx int64 = -1
	total := int64(n) * int64(n-1) / 2
	for {
		skip := int64(math.Floor(math.Log(1-r.Float64()) / logq))
		idx += 1 + skip
		if idx >= total {
			break
		}
		// Decode pair index -> (u,v), u<v. Row u has n-1-u entries.
		u := int64(0)
		rem := idx
		// Solve analytically: find largest u with rowStart(u) <= idx where
		// rowStart(u) = u*n - u*(u+1)/2.
		lo, hi := int64(0), int64(n-1)
		for lo < hi {
			mid := (lo + hi + 1) / 2
			start := mid*int64(n) - mid*(mid+1)/2
			if start <= idx {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		u = lo
		rem = idx - (u*int64(n) - u*(u+1)/2)
		v := u + 1 + rem
		b.AddEdge(uint32(u), uint32(v))
	}
	g, _ := b.Build()
	return g
}

// RMAT generates a power-law graph with the recursive matrix model
// (Chakrabarti et al. 2004) using the default parameters a=0.57, b=0.19,
// c=0.19, d=0.05 cited by the paper's RMAT-100M dataset. scale is
// log2(|V|); edgeFactor is |E|/|V| before dedup.
func RMAT(scale int, edgeFactor int, seed int64) *Graph {
	return RMATParams(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// RMATParams generates an R-MAT graph with explicit quadrant
// probabilities a, b, c (d = 1-a-b-c).
func RMATParams(scale, edgeFactor int, a, b, c float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := n * edgeFactor
	bl := NewBuilder(n)
	bl.SetName("rmat")
	ab := a + b
	abc := a + b + c
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			x := r.Float64()
			switch {
			case x < a:
				// top-left: nothing set
			case x < ab:
				v |= 1 << bit
			case x < abc:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		bl.AddEdge(uint32(u), uint32(v))
	}
	g, _ := bl.Build()
	return g
}

// SmallWorld generates a Watts–Strogatz style ring lattice with k nearest
// neighbors per side and rewiring probability beta. It produces the high
// local clustering characteristic of communication graphs such as
// EmailEuCore, which the locality-aware cost model exploits.
func SmallWorld(n, k int, beta float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	b.SetName("smallworld")
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if r.Float64() < beta {
				v = r.Intn(n)
				for v == u {
					v = r.Intn(n)
				}
			}
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	g, _ := b.Build()
	return g
}

// Community generates an overlapping-cliques community graph: every
// vertex joins `memberships` communities of `size` members each (the
// membership slots are a random shuffle of the vertex multiset), and
// each community is a clique. The result has near-uniform degree around
// memberships·(size-1) — no hubs — but extreme local clustering: dense
// 6-vertex near-cliques are abundant while |N(w) ∩ C| for a community
// candidate set C collapses to roughly one community. That combination
// (deep loops that really run, neighbor lists much larger than the
// pruned sets they are intersected with, and no hub bitmaps shortcutting
// the merges) is the regime where auxiliary-graph materialization pays.
func Community(n, memberships, size int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	slots := make([]uint32, 0, n*memberships)
	for v := 0; v < n; v++ {
		for i := 0; i < memberships; i++ {
			slots = append(slots, uint32(v))
		}
	}
	r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	b := NewBuilder(n)
	b.SetName("community")
	for i := 0; i+size <= len(slots); i += size {
		comm := slots[i : i+size]
		for a := 0; a < len(comm); a++ {
			for c := a + 1; c < len(comm); c++ {
				if comm[a] != comm[c] {
					b.AddEdge(comm[a], comm[c])
				}
			}
		}
	}
	g, _ := b.Build()
	return g
}

// WithRandomLabels returns a copy of g carrying numLabels random vertex
// labels with a mildly skewed (Zipf-like) distribution, mirroring the
// paper's "lj with randomly synthesized labels". Labels are drawn in
// input-ID order, so a seed labels each input vertex the same way
// whatever the internal numbering.
func (g *Graph) WithRandomLabels(numLabels int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	// Zipf with s=1.2 over numLabels classes.
	weights := make([]float64, numLabels)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.2)
		sum += weights[i]
	}
	cdf := make([]float64, numLabels)
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		cdf[i] = acc
	}
	labels := make([]uint32, g.NumVertices())
	for v := range labels {
		x := r.Float64()
		lo, hi := 0, numLabels-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		labels[v] = uint32(lo)
	}
	// Shallow copy: adjacency (and therefore the degree cache and hub
	// bitmap index) is shared with the receiver.
	ng := *g
	ng.setLabels(labels)
	ng.name = g.name + "-labeled"
	return &ng
}

// Rename returns a shallow copy of g with a new dataset name.
func (g *Graph) Rename(name string) *Graph {
	ng := *g
	ng.name = name
	return &ng
}

// SampleEdges returns m distinct edges sampled uniformly without
// replacement (reservoir sampling over the edge stream), as (u,v) pairs
// with u<v. If the graph has fewer than m edges all edges are returned.
// This is step (1) of the approximate-mining cost model (§6.2): "randomly
// sample a fixed number of edges from input graph".
func (g *Graph) SampleEdges(m int, seed int64) [][2]uint32 {
	r := rand.New(rand.NewSource(seed))
	reservoir := make([][2]uint32, 0, m)
	i := 0
	g.Edges(func(u, v uint32) {
		if len(reservoir) < m {
			reservoir = append(reservoir, [2]uint32{u, v})
		} else if j := r.Intn(i + 1); j < m {
			reservoir[j] = [2]uint32{u, v}
		}
		i++
	})
	return reservoir
}

// EdgeSampledSubgraph builds the graph induced by a uniform sample of m
// edges: the sampled edges plus their endpoints, renumbered densely.
// Unlike vertex sampling this preserves hub vertices with high
// probability (§6.2).
func (g *Graph) EdgeSampledSubgraph(m int, seed int64) *Graph {
	edges := g.SampleEdges(m, seed)
	remap := map[uint32]uint32{}
	next := uint32(0)
	id := func(v uint32) uint32 {
		if x, ok := remap[v]; ok {
			return x
		}
		remap[v] = next
		next++
		return remap[v]
	}
	b := NewBuilder(0)
	b.SetName(g.nonEmptyName() + "-sample")
	for _, e := range edges {
		b.AddEdge(id(e[0]), id(e[1]))
	}
	sub, _ := b.Build()
	return sub
}
