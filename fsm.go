package decomine

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decomine/internal/core"
	"decomine/internal/engine"
	"decomine/internal/pattern"
)

// FrequentPattern is an FSM result: a labeled pattern together with its
// MNI (minimum-image) support.
type FrequentPattern struct {
	Pattern *Pattern
	Support int64
}

// FSM discovers all frequent labeled patterns with up to maxEdges edges
// whose MNI support is at least minSupport (paper §4.1, §8): the domain
// of a pattern vertex is the set of input vertices that map to it across
// all embeddings, and the support is the size of the smallest domain.
//
// Domains are computed from partial embeddings: the completeness
// property guarantees every mapped vertex is observed, and the coverage
// property guarantees every pattern vertex receives a domain, without
// ever materializing whole-pattern embeddings.
func (s *System) FSM(minSupport int64, maxEdges int) ([]FrequentPattern, error) {
	res, _, err := s.FSMWithin(minSupport, maxEdges, 0)
	return res, err
}

// FSMWithin is FSM under a wall-clock budget (<= 0 means none), enforced
// between levels, before each candidate's support computation, and
// inside each plan execution. Unlike a count, a truncated mining run
// still means something: on expiry it returns the patterns found so far
// — each with its exact support — and truncated=true.
func (s *System) FSMWithin(minSupport int64, maxEdges int, budget time.Duration) (_ []FrequentPattern, truncated bool, _ error) {
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	expired := func() bool { return !deadline.IsZero() && !time.Now().Before(deadline) }
	if !s.graph.Labeled() {
		return nil, false, fmt.Errorf("decomine: FSM requires a labeled graph")
	}
	if maxEdges < 1 {
		return nil, false, fmt.Errorf("decomine: maxEdges must be >= 1")
	}
	g := s.graph.g

	// Level 1: frequent single-edge labeled patterns, counted directly
	// from an edge scan (domains are endpoint sets).
	type domPair struct{ a, b *bitset }
	edgeDoms := map[[2]uint32]*domPair{}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if u < uint32(v) {
				continue
			}
			la, lb := g.Label(uint32(v)), g.Label(u)
			x, y := uint32(v), u
			if la > lb {
				la, lb = lb, la
				x, y = y, x
			}
			key := [2]uint32{la, lb}
			d, ok := edgeDoms[key]
			if !ok {
				d = &domPair{newBitset(n), newBitset(n)}
				edgeDoms[key] = d
			}
			d.a.set(x)
			d.b.set(y)
			if la == lb {
				d.a.set(y)
				d.b.set(x)
			}
		}
	}
	var frontier []*pattern.Pattern
	var results []FrequentPattern
	seen := map[pattern.Code]bool{}
	freqLabels := map[uint32]bool{}
	for key, d := range edgeDoms {
		sup := min64(int64(d.a.count()), int64(d.b.count()))
		if sup < minSupport {
			continue
		}
		p := pattern.Chain(2)
		p.SetLabel(0, key[0])
		p.SetLabel(1, key[1])
		code := p.Canonical()
		if seen[code] {
			continue
		}
		seen[code] = true
		frontier = append(frontier, p)
		results = append(results, FrequentPattern{&Pattern{p.Clone()}, sup})
		freqLabels[key[0]] = true
		freqLabels[key[1]] = true
	}
	// The frontier's order decides which spelling of each later candidate
	// reaches the compiler (so which plan it gets): put the map walk's
	// output in canonical-code order, as every later level already is, so
	// two Systems on one graph mine identically.
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].Canonical() < frontier[j].Canonical() })
	labels := make([]uint32, 0, len(freqLabels))
	for l := range freqLabels {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })

	// Levels 2..maxEdges: extend frequent patterns by one edge
	// (anti-monotonicity of MNI support prunes the search). Each level's
	// candidates compile and evaluate concurrently on the shared pool —
	// the FSM analogue of the batch layer's residual-work scheduling —
	// and the wall-clock deadline is enforced both between levels and
	// before each candidate launch. On expiry the completed work is
	// returned with truncated=true instead of being discarded.
	truncate := func() ([]FrequentPattern, bool, error) {
		sortFrequentPatterns(results)
		return results, true, nil
	}
	for level := 2; level <= maxEdges && len(frontier) > 0; level++ {
		if expired() {
			return truncate()
		}
		candidates := map[pattern.Code]*pattern.Pattern{}
		for _, p := range frontier {
			for _, q := range extendByOneEdge(p, labels) {
				code := q.Canonical()
				if !seen[code] {
					if _, dup := candidates[code]; !dup {
						candidates[code] = q
					}
				}
			}
		}
		codes := make([]pattern.Code, 0, len(candidates))
		for code := range candidates {
			codes = append(codes, code)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		type candOutcome struct {
			sup  int64
			done bool
		}
		outcomes := make([]candOutcome, len(codes))
		errs := make([]error, len(codes))
		var stopped atomic.Bool
		par := s.threads()
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for idx, code := range codes {
			if stopped.Load() {
				break
			}
			seen[code] = true
			idx, q := idx, candidates[code]
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				if stopped.Load() {
					return
				}
				if expired() {
					stopped.Store(true)
					return
				}
				// Each candidate compiles on its own goroutine: plan
				// choice depends only on the pattern (the cost profile's
				// estimates are pure), not on which search asks first.
				plan, info, err := s.emitPlan(q)
				if err != nil {
					errs[idx] = err
					stopped.Store(true)
					return
				}
				sup, canceled, err := s.patternSupport(plan, info, q.NumVertices(), deadline)
				if err != nil {
					errs[idx] = err
					return
				}
				if canceled {
					stopped.Store(true)
					return
				}
				outcomes[idx] = candOutcome{sup: sup, done: true}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, false, err
			}
		}
		// Collect in canonical candidate order so the frequent set and
		// the frontier are schedule-independent.
		frontier = frontier[:0]
		for idx, code := range codes {
			o := outcomes[idx]
			if !o.done || o.sup < minSupport {
				continue
			}
			q := candidates[code]
			frontier = append(frontier, q)
			results = append(results, FrequentPattern{&Pattern{q.Clone()}, o.sup})
		}
		if stopped.Load() {
			return truncate()
		}
	}
	sortFrequentPatterns(results)
	return results, false, nil
}

// sortFrequentPatterns orders an FSM result set canonically: by edge
// count, then pattern spelling.
func sortFrequentPatterns(results []FrequentPattern) {
	sort.Slice(results, func(i, j int) bool {
		if a, b := results[i].Pattern.NumEdges(), results[j].Pattern.NumEdges(); a != b {
			return a < b
		}
		return results[i].Pattern.String() < results[j].Pattern.String()
	})
}

// patternSupport computes the MNI support of a k-vertex pattern from
// the partial embeddings its emission plan delivers.
func (s *System) patternSupport(plan *core.Plan, info []subInfo, k int, deadline time.Time) (int64, bool, error) {
	n := s.graph.NumVertices()
	type state struct{ domains []*bitset }
	var workers []*state
	// Supports do not depend on the vertex numbering, so the domains
	// collect internal IDs straight from the engine.
	canceled, err := s.runEmitPlan(plan, func(worker int) engine.Consumer {
		st := &state{domains: make([]*bitset, k)}
		for i := range st.domains {
			st.domains[i] = newBitset(n)
		}
		workers = append(workers, st)
		return engine.ConsumerFunc(func(sub int, verts []uint32, count int64) bool {
			for i, w := range info[sub].toWhole {
				st.domains[w].set(verts[i])
			}
			return true
		})
	}, deadline)
	if err != nil {
		return 0, false, err
	}
	if canceled {
		return 0, true, nil
	}
	// Fold every worker's domains into the first worker's (the engine
	// always makes worker 0's consumer).
	merged := workers[0].domains
	for _, st := range workers[1:] {
		for i, d := range st.domains {
			merged[i].or(d)
		}
	}
	sup := int64(n + 1)
	for _, d := range merged {
		if c := int64(d.count()); c < sup {
			sup = c
		}
	}
	return sup, false, nil
}

// extendByOneEdge generates the labeled one-edge extensions of p: a new
// labeled vertex attached to each existing vertex, and every missing
// internal edge.
func extendByOneEdge(p *pattern.Pattern, labels []uint32) []*pattern.Pattern {
	var out []*pattern.Pattern
	k := p.NumVertices()
	if k < pattern.MaxVertices {
		for v := 0; v < k; v++ {
			for _, l := range labels {
				q := pattern.New(k + 1)
				copyPatternInto(p, q)
				q.AddEdge(v, k)
				q.SetLabel(k, l)
				out = append(out, q)
			}
		}
	}
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			if p.HasEdge(u, v) {
				continue
			}
			q := pattern.New(k)
			copyPatternInto(p, q)
			q.AddEdge(u, v)
			out = append(out, q)
		}
	}
	return out
}

func copyPatternInto(src, dst *pattern.Pattern) {
	for _, e := range src.Edges() {
		dst.AddEdge(e[0], e[1])
	}
	for v := 0; v < src.NumVertices(); v++ {
		if l := src.Label(v); l != pattern.NoLabel {
			dst.SetLabel(v, l)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// bitset is a fixed-size vertex bitset used for FSM domains.
type bitset struct {
	words []uint64
}

func newBitset(n int) *bitset { return &bitset{make([]uint64, (n+63)/64)} }

func (b *bitset) set(v uint32) { b.words[v>>6] |= 1 << (v & 63) }

func (b *bitset) or(o *bitset) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

func (b *bitset) count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
