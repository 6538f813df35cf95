// Package sampling implements the profiling step of DecoMine's
// approximate-mining cost model (paper §6.2): sample a fixed number of
// edges from the input graph, then estimate the tuple counts of small
// patterns on the sample with an ASAP-style neighbor sampling estimator.
// Estimates are made lazily, the first time the compiler asks for a
// shape, and cached by canonical code.
//
// An estimate is a pure function of (edge sample, seed, unlabeled
// shape). Labels are ignored: the cost model prices label selectivity
// itself. The estimator walks the shape's canonical spelling, rebuilt
// from its code, and draws from a random stream seeded by the profile
// seed and the code. So neither the order in which searches ask, nor
// the spelling they ask in, nor how many ask at once can change an
// estimate or the plan it picks.
package sampling

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"

	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/vset"
)

// Profile is the lazily filled pattern-count table for one input graph.
// It is safe for concurrent use.
type Profile struct {
	sample *graph.Graph
	edges  [][2]uint32
	trials int
	seed   int64
	// SampleVertices/SampleEdges record the profiled subgraph size for
	// reporting.
	SampleVertices int
	SampleEdges    int64

	mu     sync.Mutex
	counts map[pattern.Code]*entry
}

// entry is one shape's slot in the table. The first asker runs the
// estimator inside once, outside the table lock; concurrent askers of
// the same shape wait for it instead of repeating the work.
type entry struct {
	once  sync.Once
	count float64
}

// Options configures profiling.
type Options struct {
	// SampleEdges is the number of edges sampled from the input graph
	// (paper default is large, e.g. 32M; scaled here). 0 means 200k.
	SampleEdges int
	// Trials is the number of neighbor-sampling walks per pattern.
	// 0 means 30k.
	Trials int
	// Seed fixes the edge sample and every estimate's random stream.
	Seed int64
}

// BuildProfile draws the edge sample; estimates are made on demand.
func BuildProfile(g *graph.Graph, opts Options) *Profile {
	if opts.SampleEdges == 0 {
		opts.SampleEdges = 200_000
	}
	if opts.Trials == 0 {
		opts.Trials = 30_000
	}
	sample := g
	if g.NumEdges() > int64(opts.SampleEdges) {
		sample = g.EdgeSampledSubgraph(opts.SampleEdges, opts.Seed)
	}
	p := &Profile{
		sample:         sample,
		trials:         opts.Trials,
		seed:           opts.Seed,
		counts:         map[pattern.Code]*entry{},
		SampleVertices: sample.NumVertices(),
		SampleEdges:    sample.NumEdges(),
	}
	p.edges = make([][2]uint32, 0, sample.NumEdges())
	sample.Edges(func(u, v uint32) { p.edges = append(p.edges, [2]uint32{u, v}) })
	return p
}

// Count returns the approximate tuple count of a connected pattern's
// unlabeled shape on the sampled graph, estimating it on first demand.
// The second result is false for patterns the profiler cannot estimate
// (disconnected ones).
func (p *Profile) Count(pat *pattern.Pattern) (float64, bool) {
	if pat.NumVertices() < 2 {
		return float64(p.SampleVertices), true
	}
	if !pat.Connected() {
		return 0, false
	}
	code := pat.Unlabeled().Canonical()
	p.mu.Lock()
	e := p.counts[code]
	if e == nil {
		e = &entry{}
		p.counts[code] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.count = p.estimate(code) })
	return e.count, true
}

// estimate estimates the shape with the given canonical code on its
// canonical spelling, from a stream seeded by (profile seed, code).
func (p *Profile) estimate(code pattern.Code) float64 {
	shape, err := pattern.FromCode(code)
	if err != nil {
		panic("sampling: " + err.Error()) // codes come from Canonical
	}
	h := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(p.seed))
	h.Write(seed[:])
	h.Write([]byte(code))
	return p.walk(shape, rand.New(rand.NewSource(int64(h.Sum64()))))
}

// walk runs the neighbor-sampling estimator: root a random edge,
// extend one vertex at a time along a connected matching order, weight by
// the product of candidate-set sizes. The expectation of the weight
// equals the number of injective tuples matching the pattern.
//
// A step's candidates are the common neighbors of the bound vertices
// adjacent to it, minus the bound vertices themselves. They are read
// straight from the sample's adjacency rows: a step with one such
// neighbor copies nothing, and the bound vertices are skipped by
// position instead of filtered out.
func (p *Profile) walk(pat *pattern.Pattern, rng *rand.Rand) float64 {
	order := connectedOrder(pat)
	if order == nil {
		return 0
	}
	g := p.sample
	edges := p.edges
	m := int64(len(edges))
	if m == 0 {
		return 0
	}
	n := pat.NumVertices()
	// back[i] lists the earlier order positions adjacent to position i,
	// other[i] the rest. cand lies inside the neighbor lists of the
	// back[i] vertices, so only the other[i] vertices can be in it.
	back := make([][]int, n)
	other := make([][]int, n)
	for i := 2; i < n; i++ {
		for j := 0; j < i; j++ {
			if pat.HasEdge(order[i], order[j]) {
				back[i] = append(back[i], j)
			} else {
				other[i] = append(other[i], j)
			}
		}
	}
	bound := make([]uint32, n) // by order position
	skip := make([]int, 0, n)  // positions of bound vertices in cand
	var bufs [2][]uint32
	var total float64
	for trial := 0; trial < p.trials; trial++ {
		e := edges[rng.Intn(len(edges))]
		u, v := e[0], e[1]
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		weight := 2 * float64(m)
		bound[0], bound[1] = u, v
		ok := true
		// The first two pattern vertices must be adjacent (connected
		// order guarantees it); remaining are sampled from candidates.
		for i := 2; i < n; i++ {
			cand := g.Neighbors(bound[back[i][0]])
			for k, j := range back[i][1:] {
				if len(cand) == 0 {
					break
				}
				bufs[k%2] = vset.Intersect(bufs[k%2], cand, g.Neighbors(bound[j]))
				cand = bufs[k%2]
			}
			// Distinctness: skip the already-bound vertices (distinct by
			// construction) at their positions in cand, in ascending order.
			skip = skip[:0]
			for _, j := range other[i] {
				if at := indexOf(cand, bound[j]); at >= 0 {
					skip = append(skip, at)
				}
			}
			size := len(cand) - len(skip)
			if size == 0 {
				ok = false
				break
			}
			slices.Sort(skip)
			weight *= float64(size)
			at := rng.Intn(size)
			for _, s := range skip {
				if s <= at {
					at++
				}
			}
			bound[i] = cand[at]
		}
		if !ok {
			continue
		}
		// Verify the remaining (non-tree) pattern edges: extension used
		// only bound-neighbor intersections, which already enforce all
		// edges to earlier vertices, so the sample is exact.
		total += weight
	}
	return total / float64(p.trials)
}

// indexOf returns x's position in the ascending set s, or -1. The walk
// calls it for every bound vertex of every step; slices.BinarySearch,
// which does not inline, took twice as long there.
func indexOf(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if s[h] < x {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo < len(s) && s[lo] == x {
		return lo
	}
	return -1
}

// connectedOrder returns a matching order in which every vertex after the
// first is adjacent to an earlier one, or nil if the pattern is
// disconnected.
func connectedOrder(pat *pattern.Pattern) []int {
	n := pat.NumVertices()
	if n < 2 || !pat.Connected() {
		return nil
	}
	// Start from the highest-degree vertex and grow greedily by degree.
	start := 0
	for v := 1; v < n; v++ {
		if pat.Degree(v) > pat.Degree(start) {
			start = v
		}
	}
	order := []int{start}
	used := map[int]bool{start: true}
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			adj := false
			for _, u := range order {
				if pat.HasEdge(u, v) {
					adj = true
					break
				}
			}
			if !adj {
				continue
			}
			if best < 0 || pat.Degree(v) > pat.Degree(best) {
				best = v
			}
		}
		if best < 0 {
			return nil
		}
		order = append(order, best)
		used[best] = true
	}
	return order
}
