// Package baseline implements the comparator systems used by the
// paper's evaluation: a pattern-oblivious enumerator (the
// Arabesque/RStream class — enumerate all connected subgraphs, classify
// each with an isomorphism check), and a hand-tuned native 4-motif
// counter standing in for ESCAPE (Table 5). The AutoMine-like and
// GraphPi-like baselines are configurations of the DecoMine compiler
// itself (decomposition disabled, ± the last-loop counting optimization)
// and are constructed by the experiment harness.
package baseline

import (
	"fmt"
	"time"

	"decomine/internal/graph"
	"decomine/internal/pattern"
)

// ObliviousMotifCensus enumerates every connected vertex-induced
// subgraph with exactly k vertices (ESU / pattern-oblivious exploration)
// and classifies each via its canonical code — the expensive
// per-embedding isomorphism check that pattern-aware systems avoid.
// Returns vertex-induced counts keyed by canonical code.
func ObliviousMotifCensus(g *graph.Graph, k int) map[pattern.Code]int64 {
	census, _ := ObliviousMotifCensusBudget(g, k, 0)
	return census
}

// ObliviousMotifCensusBudget is ObliviousMotifCensus with a wall-clock
// budget (0 = unlimited), checked once per root vertex. The second
// result reports whether the budget expired (the census is then partial).
func ObliviousMotifCensusBudget(g *graph.Graph, k int, budget time.Duration) (map[pattern.Code]int64, bool) {
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	counts := map[pattern.Code]int64{}
	n := g.NumVertices()
	sub := make([]uint32, 0, k)

	classify := func() {
		p := pattern.New(k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if g.HasEdge(sub[i], sub[j]) {
					p.AddEdge(i, j)
				}
			}
		}
		counts[p.Canonical()]++
	}

	// ESU: grow vertex sets using only extensions with ID greater than
	// the root, through neighbors of the current set, so each connected
	// set is generated exactly once.
	var extend func(ext []uint32, root uint32)
	extend = func(ext []uint32, root uint32) {
		if len(sub) == k {
			classify()
			return
		}
		for len(ext) > 0 {
			w := ext[0]
			ext = ext[1:]
			// New extension = ext ∪ exclusive neighbors of w (> root).
			newExt := append([]uint32(nil), ext...)
			for _, u := range g.Neighbors(w) {
				if u <= root {
					continue
				}
				inSub, inExt := false, false
				for _, x := range sub {
					if x == u {
						inSub = true
						break
					}
				}
				if inSub || u == w {
					continue
				}
				// Exclusive: u must not neighbor the existing sub (it
				// would already be in ext via an earlier member).
				for _, x := range sub {
					if g.HasEdge(x, u) {
						inExt = true
						break
					}
				}
				if inExt {
					continue
				}
				for _, x := range newExt {
					if x == u {
						inExt = true
						break
					}
				}
				if !inExt {
					newExt = append(newExt, u)
				}
			}
			sub = append(sub, w)
			extend(newExt, root)
			sub = sub[:len(sub)-1]
		}
	}

	for v := 0; v < n; v++ {
		if budget > 0 && v%16 == 0 && time.Now().After(deadline) {
			return counts, true
		}
		root := uint32(v)
		var ext []uint32
		for _, u := range g.Neighbors(root) {
			if u > root {
				ext = append(ext, u)
			}
		}
		sub = append(sub, root)
		extend(ext, root)
		sub = sub[:0]
	}
	return counts, false
}

// ObliviousPatternCount counts vertex-induced embeddings of p by running
// the full census at p's size and reading off p's class — exactly the
// wasted work the paper attributes to pattern-oblivious systems.
func ObliviousPatternCount(g *graph.Graph, p *pattern.Pattern) (int64, error) {
	if !p.Connected() {
		return 0, fmt.Errorf("baseline: pattern %s is not connected", p)
	}
	census := ObliviousMotifCensus(g, p.NumVertices())
	return census[p.Canonical()], nil
}

// ObliviousEdgeInducedCount derives the edge-induced count of p from the
// vertex-induced census at p's size.
func ObliviousEdgeInducedCount(g *graph.Graph, p *pattern.Pattern) (int64, error) {
	if !p.Connected() {
		return 0, fmt.Errorf("baseline: pattern %s is not connected", p)
	}
	return EdgeInducedFromCensus(ObliviousMotifCensus(g, p.NumVertices()), p), nil
}

// EdgeInducedFromCensus reads the edge-induced count of connected
// pattern p off a vertex-induced census of p's size (as returned by
// ObliviousMotifCensus) via cnt_ei(p) = Σ_q SpanningSubCount(p,q)·cnt_vi(q),
// so one census serves every pattern of that size.
func EdgeInducedFromCensus(census map[pattern.Code]int64, p *pattern.Pattern) int64 {
	var total int64
	seen := map[pattern.Code]bool{}
	for _, q := range pattern.Supergraphs(p) {
		code := q.Canonical()
		if seen[code] {
			continue
		}
		seen[code] = true
		if c, ok := census[code]; ok && c != 0 {
			total += pattern.SpanningSubCount(p, q) * c
		}
	}
	return total
}
