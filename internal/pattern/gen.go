package pattern

import (
	"fmt"
	"sync"
)

// ConnectedPatterns returns all connected unlabeled patterns with exactly
// k vertices, one representative per isomorphism class, in a
// deterministic order (by edge count, then canonical code). These are the
// k-motifs: k=3 gives 2 patterns, k=4 gives 6, k=5 gives 21, k=6 gives
// 112, matching the counts cited in the paper.
//
// The generator enumerates all 2^C(k,2) edge subsets, filters connected
// graphs, and dedups by canonical code. Results are memoized; k <= 6 is
// fast, k = 7 takes a few seconds.
func ConnectedPatterns(k int) []*Pattern {
	if k < 1 || k > 7 {
		panic(fmt.Sprintf("pattern: motif generation supports 1..7 vertices, got %d", k))
	}
	motifMu.Lock()
	defer motifMu.Unlock()
	if cached, ok := motifCache[k]; ok {
		return cached
	}
	var pairs [][2]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	seen := map[bucketKey]*Pattern{}
	total := 1 << uint(len(pairs))
	for mask := 0; mask < total; mask++ {
		p := New(k)
		for b, pair := range pairs {
			if mask&(1<<uint(b)) != 0 {
				p.AddEdge(pair[0], pair[1])
			}
		}
		if !p.Connected() {
			continue
		}
		// Every spelling appears exactly once here: bypass the memo
		// rather than flood it.
		key := bucketKey{p.NumEdges(), p.canonical()}
		if _, ok := seen[key]; !ok {
			seen[key] = p
		}
	}
	out := make([]*Pattern, 0, len(seen))
	keys := make([]bucketKey, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sortBucketKeys(keys)
	for _, key := range keys {
		out = append(out, seen[key])
	}
	motifCache[k] = out
	return out
}

var (
	motifMu    sync.Mutex
	motifCache = map[int][]*Pattern{}
)

type bucketKey struct {
	edges int
	code  Code
}

func sortBucketKeys(keys []bucketKey) {
	// insertion sort: tiny slices, avoids an import for a custom less.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, b := keys[j-1], keys[j]
			if a.edges < b.edges || (a.edges == b.edges && a.code <= b.code) {
				break
			}
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
}

// PseudoCliques returns all patterns obtainable by deleting at most
// missing edges from K_n, one per isomorphism class, excluding
// disconnected results. With missing=1 (the paper's experiments) this is
// {K_n, K_n minus one edge}.
func PseudoCliques(n, missing int) []*Pattern {
	base := Clique(n)
	out := []*Pattern{base}
	if missing <= 0 {
		return out
	}
	seen := map[Code]bool{base.Canonical(): true}
	frontier := []*Pattern{base}
	for d := 0; d < missing; d++ {
		var next []*Pattern
		for _, p := range frontier {
			for _, e := range p.Edges() {
				q := p.Clone()
				q.RemoveEdge(e[0], e[1])
				if !q.Connected() {
					continue
				}
				code := q.Canonical()
				if seen[code] {
					continue
				}
				seen[code] = true
				next = append(next, q)
				out = append(out, q)
			}
		}
		frontier = next
	}
	return out
}

// Supergraphs returns all patterns on the same vertex set obtained by
// adding edges to p (including p itself), one Pattern per *edge subset*
// (not per isomorphism class), each paired with its identity-preserving
// vertex numbering. Used by the vertex-induced conversion.
func Supergraphs(p *Pattern) []*Pattern {
	var nonEdges [][2]int
	for i := 0; i < p.n; i++ {
		for j := i + 1; j < p.n; j++ {
			if !p.HasEdge(i, j) {
				nonEdges = append(nonEdges, [2]int{i, j})
			}
		}
	}
	total := 1 << uint(len(nonEdges))
	out := make([]*Pattern, 0, total)
	for mask := 0; mask < total; mask++ {
		q := p.Clone()
		for b, e := range nonEdges {
			if mask&(1<<uint(b)) != 0 {
				q.AddEdge(e[0], e[1])
			}
		}
		out = append(out, q)
	}
	return out
}
