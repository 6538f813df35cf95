package main

import (
	"fmt"
	"sort"

	"decomine/internal/graph"
	"decomine/internal/pattern"
)

// embeddings calls visit with every injective map of p's vertices into
// g that sends pattern edges to graph edges and keeps vertex labels —
// and, when induced, sends non-edges to non-edges: a plain backtracking
// matcher that shares nothing with the compiler, for the labeled and
// disconnected counts internal/baseline's census cannot give. The
// slice passed to visit is reused.
func embeddings(g *graph.Graph, p *pattern.Pattern, induced bool, visit func(m []uint32)) {
	k := p.NumVertices()
	// Match in an order where a vertex follows one of its neighbors
	// whenever it has one left (always, for a connected pattern), so its
	// candidates come from one adjacency list.
	var order []int
	placed := uint32(0)
	for len(order) < k {
		next := -1
		for v := 0; v < k; v++ {
			if placed&(1<<v) == 0 && (next < 0 || p.AdjMask(v)&placed != 0) {
				next = v
				if p.AdjMask(v)&placed != 0 {
					break
				}
			}
		}
		order = append(order, next)
		placed |= 1 << next
	}
	m := make([]uint32, k)
	fits := func(i int, gv uint32) bool {
		pv := order[i]
		if l := p.Label(pv); l != pattern.NoLabel && g.Label(gv) != l {
			return false
		}
		for _, pu := range order[:i] {
			if m[pu] == gv || (p.HasEdge(pu, pv) != g.HasEdge(m[pu], gv) && (induced || p.HasEdge(pu, pv))) {
				return false
			}
		}
		return true
	}
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			visit(m)
			return
		}
		pv := order[i]
		try := func(gv uint32) {
			if fits(i, gv) {
				m[pv] = gv
				rec(i + 1)
			}
		}
		for _, pu := range order[:i] {
			if p.HasEdge(pu, pv) {
				for _, gv := range g.Neighbors(m[pu]) {
					try(gv)
				}
				return
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			try(uint32(v))
		}
	}
	rec(0)
}

// patternGraph turns p into a graph, so that p's automorphisms are its
// embeddings into itself. p must be labeled on every vertex or on none.
func patternGraph(p *pattern.Pattern) (*graph.Graph, error) {
	b := graph.NewBuilder(p.NumVertices())
	for _, e := range p.Edges() {
		b.AddEdge(uint32(e[0]), uint32(e[1]))
	}
	if p.Labeled() {
		labels := make([]uint32, p.NumVertices())
		for v := range labels {
			if labels[v] = p.Label(v); labels[v] == pattern.NoLabel {
				return nil, fmt.Errorf("oracle: %s is labeled on some vertices only", p)
			}
		}
		b.SetLabels(labels)
	}
	return b.Build()
}

// bruteCount counts the copies of p (connected or not) in g, edge- or
// vertex-induced: injective maps over automorphisms.
func bruteCount(g *graph.Graph, p *pattern.Pattern, induced bool) (int64, error) {
	pg, err := patternGraph(p)
	if err != nil {
		return 0, err
	}
	var maps, aut int64
	embeddings(g, p, induced, func([]uint32) { maps++ })
	embeddings(pg, p, true, func([]uint32) { aut++ })
	if aut == 0 || maps%aut != 0 {
		return 0, fmt.Errorf("oracle: %d maps of %s do not divide by its %d automorphisms", maps, p, aut)
	}
	return maps / aut, nil
}

// bruteMNI is p's minimum-image support in g: the smallest number of
// distinct graph vertices any one pattern vertex maps to.
func bruteMNI(g *graph.Graph, p *pattern.Pattern) (int64, error) {
	dom := make([]map[uint32]bool, p.NumVertices())
	for i := range dom {
		dom[i] = map[uint32]bool{}
	}
	embeddings(g, p, false, func(m []uint32) {
		for v, gv := range m {
			dom[v][gv] = true
		}
	})
	sup := int64(g.NumVertices())
	for _, d := range dom {
		if int64(len(d)) < sup {
			sup = int64(len(d))
		}
	}
	return sup, nil
}

// fsmLevels is level-wise frequent subgraph mining with a pluggable
// support function: with bruteMNI it is the FSM oracle, with the staged
// emit-plan support it is the stage-by-stage replay of System.FSM.
// Single-edge patterns are scored from an edge scan; each later level
// extends the previous level's frequent patterns by one edge and scores
// each new isomorphism class once, in canonical-code order. It returns
// supports keyed by canonical code, the number of levels that had
// candidates, and how many candidates support scored.
func fsmLevels(g *graph.Graph, minSupport int64, maxEdges int, support func(*pattern.Pattern) (int64, error)) (answer, int, int, error) {
	n := g.NumVertices()
	type ends struct{ a, b map[uint32]bool }
	edgeDoms := map[[2]uint32]*ends{}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if u < uint32(v) {
				continue
			}
			x, y := uint32(v), u
			la, lb := g.Label(x), g.Label(y)
			if la > lb {
				la, lb, x, y = lb, la, y, x
			}
			d := edgeDoms[[2]uint32{la, lb}]
			if d == nil {
				d = &ends{map[uint32]bool{}, map[uint32]bool{}}
				edgeDoms[[2]uint32{la, lb}] = d
			}
			d.a[x], d.b[y] = true, true
			if la == lb {
				d.a[y], d.b[x] = true, true
			}
		}
	}
	out := answer{}
	seen := map[pattern.Code]bool{}
	labelSet := map[uint32]bool{}
	var frontier []*pattern.Pattern
	for key, d := range edgeDoms {
		sup := int64(min(len(d.a), len(d.b)))
		if sup < minSupport {
			continue
		}
		p := pattern.Chain(2)
		p.SetLabel(0, key[0])
		p.SetLabel(1, key[1])
		seen[p.Canonical()] = true
		out[string(p.Canonical())] = sup
		frontier = append(frontier, p)
		labelSet[key[0]], labelSet[key[1]] = true, true
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].Canonical() < frontier[j].Canonical() })
	labels := make([]uint32, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })

	levels, scored := 1, 0
	for level := 2; level <= maxEdges && len(frontier) > 0; level++ {
		cands := map[pattern.Code]*pattern.Pattern{}
		for _, p := range frontier {
			for _, q := range extendByOneEdge(p, labels) {
				if code := q.Canonical(); !seen[code] && cands[code] == nil {
					cands[code] = q
				}
			}
		}
		codes := make([]pattern.Code, 0, len(cands))
		for c := range cands {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		if len(codes) > 0 {
			levels = level
		}
		frontier = frontier[:0]
		for _, c := range codes {
			seen[c] = true
			sup, err := support(cands[c])
			if err != nil {
				return nil, 0, 0, err
			}
			scored++
			if sup >= minSupport {
				out[string(c)] = sup
				frontier = append(frontier, cands[c])
			}
		}
	}
	return out, levels, scored, nil
}

// extendByOneEdge lists p's one-edge extensions: a new vertex of each
// frequent label hung off each vertex, and each missing internal edge.
func extendByOneEdge(p *pattern.Pattern, labels []uint32) []*pattern.Pattern {
	k := p.NumVertices()
	grow := func(n int) *pattern.Pattern {
		q := pattern.New(n)
		for _, e := range p.Edges() {
			q.AddEdge(e[0], e[1])
		}
		for v := 0; v < k; v++ {
			q.SetLabel(v, p.Label(v))
		}
		return q
	}
	var out []*pattern.Pattern
	if k < pattern.MaxVertices {
		for v := 0; v < k; v++ {
			for _, l := range labels {
				q := grow(k + 1)
				q.AddEdge(v, k)
				q.SetLabel(k, l)
				out = append(out, q)
			}
		}
	}
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			if !p.HasEdge(u, v) {
				q := grow(k)
				q.AddEdge(u, v)
				out = append(out, q)
			}
		}
	}
	return out
}
