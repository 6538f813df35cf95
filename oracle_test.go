package decomine

// Brute-force oracles shared by the differential suites. They walk the
// input graph directly — no plan, no AST, no engine — so agreement with
// them checks the whole compiled stack. The pattern-oblivious census in
// internal/baseline is the oracle wherever it is affordable; the tuple
// enumerator here covers what the census cannot express (labeled and
// group-constrained queries) or cannot finish in test time (its cost
// explodes with hub degree, so the skewed R-MAT suites use tuples).
// They walk the graph in its internal IDs: counts do not depend on the
// numbering, which TestRenumberingMetamorphic checks on its own.

import (
	"decomine/internal/pattern"
)

// bruteCounts is one walk's worth of oracle answers for a pattern.
type bruteCounts struct {
	ei          int64 // edge-induced embeddings (labels respected)
	vi          int64 // vertex-induced embeddings
	constrained int64 // edge-induced embeddings satisfying cons
}

// brute enumerates every injective map of p's vertices into g that
// preserves p's edges and vertex labels, and classifies each tuple;
// tuples become embeddings by dividing out the automorphisms that
// preserve what was asked. cons may be nil.
func brute(g *Graph, p *pattern.Pattern, cons []LabelConstraint) bruteCounts {
	n := p.NumVertices()
	var c bruteCounts
	forEachTuple(g, p, func(bound []uint32) {
		c.ei++
		induced := true
		for u := 0; u < n && induced; u++ {
			for v := u + 1; v < n && induced; v++ {
				induced = p.HasEdge(u, v) || !g.g.HasEdge(bound[u], bound[v])
			}
		}
		if induced {
			c.vi++
		}
		if cons != nil && constraintsHold(g, bound, cons) {
			c.constrained++
		}
	})
	aut := p.AutomorphismCount()
	c.ei /= aut
	c.vi /= aut
	if cons != nil {
		c.constrained /= coreConstraintAut(&Pattern{p}, cons)
	}
	return c
}

// bruteEI is brute's edge-induced count alone, skipping the per-tuple
// classification — for hub-heavy graphs where one pattern has tens of
// millions of tuples.
func bruteEI(g *Graph, p *pattern.Pattern) int64 {
	var tuples int64
	forEachTuple(g, p, func([]uint32) { tuples++ })
	return tuples / p.AutomorphismCount()
}

// constraintsHold checks every group label constraint on one tuple.
func constraintsHold(g *Graph, bound []uint32, cons []LabelConstraint) bool {
	for _, c := range cons {
		for i, u := range c.Vertices {
			for _, v := range c.Vertices[i+1:] {
				same := g.g.Label(bound[u]) == g.g.Label(bound[v])
				if same != (c.Kind == AllSameLabel) {
					return false
				}
			}
		}
	}
	return true
}

// forEachTuple visits the tuples brute classifies. Candidates for a
// pattern vertex come from the adjacency of an already-bound pattern
// neighbor when it has one, from all of V otherwise.
func forEachTuple(g *Graph, p *pattern.Pattern, visit func(bound []uint32)) {
	n := p.NumVertices()
	bound := make([]uint32, n)
	all := make([]uint32, g.NumVertices())
	for v := range all {
		all[v] = uint32(v)
	}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			visit(bound)
			return
		}
		cands := all
		for j := 0; j < i; j++ {
			if p.HasEdge(i, j) {
				cands = g.g.Neighbors(bound[j])
				break
			}
		}
		for _, x := range cands {
			if l := p.Label(i); l != pattern.NoLabel && g.g.Label(x) != l {
				continue
			}
			ok := true
			for j := 0; j < i && ok; j++ {
				ok = bound[j] != x && (!p.HasEdge(i, j) || g.g.HasEdge(x, bound[j]))
			}
			if ok {
				bound[i] = x
				rec(i + 1)
			}
		}
	}
	rec(0)
}
