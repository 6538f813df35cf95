// Package decomp implements the pattern-decomposition algebra of
// DecoMine (paper §3.1, §5): vertex cutting-set enumeration, subpattern
// construction, and shrinkage-pattern (merge-partition quotient)
// generation, together with the vertex mappings the engine needs to emit
// partial embeddings and to project shrinkage embeddings back onto
// subpatterns.
//
// Counting algebra (all counts are injective-mapping counts rooted at a
// pinned cutting-set embedding e_C):
//
//	inj(p | e_C) = Π_i M_i − Σ_{π nontrivial} inj(quotient(π) | e_C)
//
// where M_i is the number of extensions of e_C matching subpattern i and
// π ranges over merge partitions of the non-cut vertices with at most one
// vertex per component per block and at least one block of size ≥ 2.
package decomp

import (
	"fmt"
	"math/bits"
	"sort"

	"decomine/internal/pattern"
)

// Subpattern is one of the K pieces of a decomposition: the cutting set
// plus one connected component, as its own pattern graph.
type Subpattern struct {
	// Pat has the cutting-set vertices first (in increasing whole-pattern
	// ID order) followed by the component vertices (same order).
	Pat *pattern.Pattern
	// ToWhole maps Pat's vertex IDs to the whole pattern's vertex IDs.
	ToWhole []int
	// CompMask is the component's vertex bitmask in the whole pattern.
	CompMask uint32
}

// Shrinkage is a quotient pattern produced by one merge partition of the
// non-cut vertices.
type Shrinkage struct {
	// Pat has the cutting-set vertices first, then one vertex per block.
	Pat *pattern.Pattern
	// Blocks lists, per quotient extension vertex (index 0 = first vertex
	// after the cut), the whole-pattern vertices merged into it.
	Blocks [][]int
	// Proj[i][j] is the quotient-pattern vertex that subpattern i's
	// vertex j maps to; used by extract_subpattern_embedding (paper
	// Alg. 1, line 15).
	Proj [][]int
	// Code and Aut are Pat's canonical code and automorphism count, set
	// by Decompose so the plan generator does not recompute them for
	// every matching order of the same decomposition.
	Code pattern.Code
	Aut  int64
}

// Decomposition is a full decomposition of a pattern by a cutting set.
type Decomposition struct {
	P           *pattern.Pattern
	CutMask     uint32
	CutVerts    []int // sorted whole-pattern IDs of the cutting set
	Subpatterns []Subpattern
	Shrinkages  []Shrinkage
	// Aut is |Aut(P)|, set by Decompose.
	Aut int64
}

// K returns the number of subpatterns.
func (d *Decomposition) K() int { return len(d.Subpatterns) }

// CutPattern returns the subpattern induced by the cutting set alone.
func (d *Decomposition) CutPattern() *pattern.Pattern {
	return d.P.InducedSub(d.CutVerts)
}

// CuttingSets enumerates every vertex cutting set of a connected pattern
// p: subsets whose removal leaves at least two connected components, with
// at least one vertex remaining outside the set. Complexity O(2^n (n+m))
// as in the paper (§7.3). The empty result means p has no cutting set
// (e.g. cliques).
func CuttingSets(p *pattern.Pattern) []uint32 {
	n := p.NumVertices()
	var out []uint32
	full := uint32(1<<uint(n)) - 1
	for mask := uint32(1); mask < full; mask++ {
		if bits.OnesCount32(mask) > n-2 {
			continue
		}
		comps := p.ComponentsAvoiding(mask)
		if len(comps) >= 2 {
			out = append(out, mask)
		}
	}
	return out
}

// Decompose builds the decomposition of p by the cutting set cutMask.
// It errors if the mask does not cut p into at least two components.
func Decompose(p *pattern.Pattern, cutMask uint32) (*Decomposition, error) {
	if !p.Connected() {
		return nil, fmt.Errorf("decomp: pattern %s is not connected", p)
	}
	comps := p.ComponentsAvoiding(cutMask)
	if len(comps) < 2 {
		return nil, fmt.Errorf("decomp: mask %b does not cut %s", cutMask, p)
	}
	d := &Decomposition{
		P:        p,
		CutMask:  cutMask,
		CutVerts: pattern.MaskVertices(cutMask),
	}
	for _, compMask := range comps {
		vs := append(append([]int(nil), d.CutVerts...), pattern.MaskVertices(compMask)...)
		d.Subpatterns = append(d.Subpatterns, Subpattern{
			Pat:      p.InducedSub(vs),
			ToWhole:  vs,
			CompMask: compMask,
		})
	}
	d.Shrinkages = d.enumerateShrinkages()
	for i := range d.Shrinkages {
		s := &d.Shrinkages[i]
		s.Code, s.Aut = s.Pat.Canonical(), s.Pat.AutomorphismCount()
	}
	d.Aut = p.AutomorphismCount()
	return d, nil
}

// compIndex returns, for every whole-pattern vertex, the index of its
// component (or -1 for cut vertices).
func (d *Decomposition) compIndex() []int {
	idx := make([]int, d.P.NumVertices())
	for v := range idx {
		idx[v] = -1
	}
	for ci, sp := range d.Subpatterns {
		for m := sp.CompMask; m != 0; m &= m - 1 {
			idx[bits.TrailingZeros32(m)] = ci
		}
	}
	return idx
}

// enumerateShrinkages generates one Shrinkage per nontrivial merge
// partition π of the non-cut vertices (blocks transversal across
// components, at least one block with ≥ 2 vertices). Merges with
// incompatible label constraints are skipped: they can match nothing.
func (d *Decomposition) enumerateShrinkages() []Shrinkage {
	compIdx := d.compIndex()
	var extVerts []int // all non-cut vertices, sorted
	for v := 0; v < d.P.NumVertices(); v++ {
		if compIdx[v] >= 0 {
			extVerts = append(extVerts, v)
		}
	}
	var out []Shrinkage
	blocks := [][]int{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(extVerts) {
			nontrivial := false
			for _, b := range blocks {
				if len(b) >= 2 {
					nontrivial = true
					break
				}
			}
			if !nontrivial {
				return
			}
			if s, ok := d.buildShrinkage(blocks, compIdx); ok {
				out = append(out, s)
			}
			return
		}
		v := extVerts[i]
		// Put v in an existing block (if no member shares v's component
		// and labels are compatible) ...
		for bi := range blocks {
			ok := true
			for _, u := range blocks[bi] {
				if compIdx[u] == compIdx[v] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if !labelsCompatible(d.P, append(blocks[bi], v)) {
				continue
			}
			blocks[bi] = append(blocks[bi], v)
			rec(i + 1)
			blocks[bi] = blocks[bi][:len(blocks[bi])-1]
		}
		// ... or start a new block. Restrict new-block creation to
		// canonical order (blocks are created in first-member order) to
		// avoid double-counting partitions.
		blocks = append(blocks, []int{v})
		rec(i + 1)
		blocks = blocks[:len(blocks)-1]
	}
	rec(0)
	return out
}

func labelsCompatible(p *pattern.Pattern, group []int) bool {
	lbl := pattern.NoLabel
	for _, v := range group {
		l := p.Label(v)
		if l == pattern.NoLabel {
			continue
		}
		if lbl != pattern.NoLabel && lbl != l {
			return false
		}
		lbl = l
	}
	return true
}

// buildShrinkage constructs the quotient pattern for one merge partition.
func (d *Decomposition) buildShrinkage(blocks [][]int, compIdx []int) (Shrinkage, bool) {
	nCut := len(d.CutVerts)
	// Quotient vertex numbering: cut vertices 0..nCut-1, then blocks.
	q := pattern.New(nCut + len(blocks))
	cutPos := map[int]int{} // whole-pattern cut vertex -> quotient ID
	for i, v := range d.CutVerts {
		cutPos[v] = i
	}
	// Quotient vertex of every whole-pattern vertex.
	qOf := make([]int, d.P.NumVertices())
	for v := range qOf {
		qOf[v] = -1
	}
	for v, i := range cutPos {
		qOf[v] = i
	}
	blockCopies := make([][]int, len(blocks))
	for bi, b := range blocks {
		blockCopies[bi] = append([]int(nil), b...)
		sort.Ints(blockCopies[bi])
		for _, v := range b {
			qOf[v] = nCut + bi
		}
	}
	// Edges: every whole-pattern edge maps into the quotient; parallel
	// edges collapse. Cross-component merged vertices are never adjacent,
	// so no self-loops arise.
	for _, e := range d.P.Edges() {
		a, b := qOf[e[0]], qOf[e[1]]
		if a != b {
			q.AddEdge(a, b)
		}
	}
	// Labels.
	if d.P.Labeled() {
		for i, v := range d.CutVerts {
			if l := d.P.Label(v); l != pattern.NoLabel {
				q.SetLabel(i, l)
			}
		}
		for bi, b := range blocks {
			for _, v := range b {
				if l := d.P.Label(v); l != pattern.NoLabel {
					q.SetLabel(nCut+bi, l)
				}
			}
		}
	}
	// Projections: subpattern i vertex j -> quotient vertex.
	proj := make([][]int, len(d.Subpatterns))
	for si, sp := range d.Subpatterns {
		proj[si] = make([]int, sp.Pat.NumVertices())
		for j, whole := range sp.ToWhole {
			proj[si][j] = qOf[whole]
		}
	}
	return Shrinkage{Pat: q, Blocks: blockCopies, Proj: proj}, true
}
