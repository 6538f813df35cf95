package pattern

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Isomorphic reports whether p and q are isomorphic (respecting label
// constraints: vertex labels must match exactly, wildcards only match
// wildcards).
func Isomorphic(p, q *Pattern) bool {
	if p.n != q.n || p.NumEdges() != q.NumEdges() {
		return false
	}
	dp, dq := p.DegreeSequence(), q.DegreeSequence()
	for i := range dp {
		if dp[i] != dq[i] {
			return false
		}
	}
	return findIso(p, q) != nil
}

// findIso returns a mapping f with f[i] = image in q of p's vertex i, or
// nil if none exists.
func findIso(p, q *Pattern) []int {
	f := make([]int, p.n)
	used := uint32(0)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.n {
			return true
		}
		for c := 0; c < q.n; c++ {
			if used&(1<<uint(c)) != 0 {
				continue
			}
			if p.Degree(i) != q.Degree(c) || p.Label(i) != q.Label(c) {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if p.HasEdge(i, j) != q.HasEdge(c, f[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			f[i] = c
			used |= 1 << uint(c)
			if rec(i + 1) {
				return true
			}
			used &^= 1 << uint(c)
		}
		return false
	}
	if rec(0) {
		return f
	}
	return nil
}

// Automorphisms returns every permutation σ (as a slice mapping vertex ->
// image) preserving adjacency and labels. The identity is always first.
func (p *Pattern) Automorphisms() [][]int {
	var out [][]int
	f := make([]int, p.n)
	used := uint32(0)
	var rec func(i int)
	rec = func(i int) {
		if i == p.n {
			out = append(out, append([]int(nil), f...))
			return
		}
		for c := 0; c < p.n; c++ {
			if used&(1<<uint(c)) != 0 {
				continue
			}
			if p.Degree(i) != p.Degree(c) || p.Label(i) != p.Label(c) {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if p.HasEdge(i, j) != p.HasEdge(c, f[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			f[i] = c
			used |= 1 << uint(c)
			rec(i + 1)
			used &^= 1 << uint(c)
		}
	}
	rec(0)
	// Move the identity to the front for deterministic consumers.
	for i, σ := range out {
		id := true
		for v, img := range σ {
			if v != img {
				id = false
				break
			}
		}
		if id {
			out[0], out[i] = out[i], out[0]
			break
		}
	}
	return out
}

// AutomorphismCount returns |Aut(p)|, the multiplicity used to convert
// injective-mapping counts into embedding counts.
func (p *Pattern) AutomorphismCount() int64 {
	return int64(len(p.Automorphisms()))
}

// Restriction is a symmetry-breaking constraint requiring the input-graph
// vertex matched to pattern vertex Less to have a smaller ID than the one
// matched to pattern vertex Greater.
type Restriction struct {
	Less, Greater int
}

// SymmetryBreaking synthesizes a set of restrictions that preserves
// exactly one automorphism-canonical matching per embedding: the
// restrictions GroupSymmetryBreaking derives from Aut(p).
func (p *Pattern) SymmetryBreaking() []Restriction {
	return GroupSymmetryBreaking(p.Automorphisms(), p.n)
}

// GroupSymmetryBreaking synthesizes restrictions on positions 0..n-1
// that, among the injective maps of the positions into an ordered set,
// keep exactly one map per orbit of the permutation group auts (each
// σ maps position -> image; the group must be closed and act on 0..n-1).
// It runs the orbit–stabilizer chain (Grochow–Kellis; GraphZero derives
// restriction sets from a group the same way): repeatedly pin the
// smallest position with a nontrivial orbit to the minimum of its
// orbit, then restrict the group to its stabilizer. The product of the
// orbit sizes equals |auts|, so the surviving maps stand for |auts|
// maps each.
func GroupSymmetryBreaking(auts [][]int, n int) []Restriction {
	var out []Restriction
	for v := 0; v < n && len(auts) > 1; v++ {
		orbit := map[int]bool{}
		for _, σ := range auts {
			orbit[σ[v]] = true
		}
		if len(orbit) > 1 {
			for u := range orbit {
				if u != v {
					out = append(out, Restriction{Less: v, Greater: u})
				}
			}
		}
		var stab [][]int
		for _, σ := range auts {
			if σ[v] == v {
				stab = append(stab, σ)
			}
		}
		auts = stab
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Less != out[j].Less {
			return out[i].Less < out[j].Less
		}
		return out[i].Greater < out[j].Greater
	})
	return out
}

// SetStabilizer returns the automorphisms of p that map the vertex set
// verts onto itself, restricted to verts and deduplicated: each element
// σ maps position i to the position in verts of the image of verts[i].
// The identity comes first. The result is a permutation group on
// 0..len(verts)-1, the input GroupSymmetryBreaking takes.
func (p *Pattern) SetStabilizer(verts []int) [][]int {
	pos := make([]int, p.n)
	for v := range pos {
		pos[v] = -1
	}
	for i, v := range verts {
		pos[v] = i
	}
	var out [][]int
	seen := map[string]bool{}
	for _, σ := range p.Automorphisms() {
		r := make([]int, len(verts))
		key := make([]byte, len(verts))
		ok := true
		for i, v := range verts {
			if r[i] = pos[σ[v]]; r[i] < 0 {
				ok = false
				break
			}
			key[i] = byte(r[i])
		}
		if ok && !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, r)
		}
	}
	return out
}

// Code is a canonical code: equal codes iff isomorphic patterns.
type Code string

// canonMemoCap bounds the canonical-code memo. A full memo is cleared
// wholesale rather than evicted entry by entry: the compiler asks for
// the same few hundred spellings over and over, so a refill is cheap,
// and a long-running server cannot grow the memo without limit.
const canonMemoCap = 1 << 12

// canonMemo maps a pattern's exact spelling (see spelling) to its
// canonical code, process-wide. The compiler recomputes the code of
// every loop prefix of every candidate plan, and the cost model again on
// every evaluation; each computation minimizes over up to n!
// permutations.
var canonMemo struct {
	sync.RWMutex
	m map[string]Code
}

// spellingLen is the longest spelling: the size byte, two bytes per
// adjacency row and four per label.
const spellingLen = 1 + 2*MaxVertices + 4*MaxVertices

// spelling appends p's exact representation — n, the adjacency rows and
// the labels, if any — to buf. Two patterns with equal spellings are
// equal under the identity mapping, so a mutated pattern can only miss
// in the memo, never hit a stale code.
func (p *Pattern) spelling(buf []byte) []byte {
	buf = append(buf, byte(p.n))
	for _, row := range p.adj {
		buf = append(buf, byte(row), byte(row>>8)) // rows fit in MaxVertices = 16 bits
	}
	for _, l := range p.labels {
		buf = append(buf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return buf
}

// Canonical returns a canonical code for p. Vertices are first ordered by
// (degree desc, label), then the adjacency bit matrix is minimized over
// all permutations that respect this partition into (degree,label)
// classes. Any isomorphism preserves degrees and labels, so isomorphic
// patterns share a code. Codes are memoized by spelling; Canonical is
// safe for concurrent use.
func (p *Pattern) Canonical() Code {
	if p.n == 0 {
		return ""
	}
	var buf [spellingLen]byte
	key := p.spelling(buf[:0])
	canonMemo.RLock()
	c, ok := canonMemo.m[string(key)]
	canonMemo.RUnlock()
	if ok {
		return c
	}
	c = p.canonical()
	canonMemo.Lock()
	if canonMemo.m == nil || len(canonMemo.m) >= canonMemoCap {
		canonMemo.m = make(map[string]Code)
	}
	canonMemo.m[string(key)] = c
	canonMemo.Unlock()
	return c
}

// canonical computes p's canonical code without the memo.
func (p *Pattern) canonical() Code {
	type class struct {
		deg   int
		label uint32
	}
	byClass := map[class][]int{}
	for v := 0; v < p.n; v++ {
		c := class{p.Degree(v), p.Label(v)}
		byClass[c] = append(byClass[c], v)
	}
	classes := make([]class, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].deg != classes[j].deg {
			return classes[i].deg > classes[j].deg
		}
		return classes[i].label < classes[j].label
	})

	best := ""
	perm := make([]int, 0, p.n) // perm[newID] = oldID
	var rec func(ci int)
	encode := func() string {
		inv := make([]int, p.n)
		for newV, oldV := range perm {
			inv[oldV] = newV
		}
		// Upper-triangular adjacency bits of the permuted pattern.
		var sb strings.Builder
		for i := 0; i < p.n; i++ {
			for j := i + 1; j < p.n; j++ {
				if p.HasEdge(perm[i], perm[j]) {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
		}
		return sb.String()
	}
	rec = func(ci int) {
		if ci == len(classes) {
			if s := encode(); best == "" || s < best {
				best = s
			}
			return
		}
		members := byClass[classes[ci]]
		permuteInto(members, &perm, func() { rec(ci + 1) })
	}
	rec(0)

	// Prefix the code with size, degree/label header so different shapes
	// cannot collide.
	var hdr strings.Builder
	fmt.Fprintf(&hdr, "n%d:", p.n)
	for _, c := range classes {
		fmt.Fprintf(&hdr, "d%dx%d", c.deg, len(byClass[c]))
		if c.label != NoLabel {
			fmt.Fprintf(&hdr, "l%d", c.label)
		}
		hdr.WriteByte(';')
	}
	return Code(hdr.String() + best)
}

// FromCode rebuilds the pattern a canonical code describes, spelled in
// the code's own vertex order: the header's degree/label classes number
// the vertices class by class, and the adjacency bits are the upper
// triangle of that numbering. Every spelling of one pattern therefore
// decodes to the same spelling, and FromCode(c).Canonical() == c.
func FromCode(c Code) (*Pattern, error) {
	s := string(c)
	if s == "" {
		return New(0), nil
	}
	colon, semi := strings.IndexByte(s, ':'), strings.LastIndexByte(s, ';')
	var n int
	if _, err := fmt.Sscanf(s, "n%d:", &n); err != nil || n < 1 || n > MaxVertices || semi < colon {
		return nil, fmt.Errorf("pattern: bad code %q", s)
	}
	p := New(n)
	v := 0
	for _, class := range strings.Split(s[colon+1:semi], ";") {
		var deg, size int
		if _, err := fmt.Sscanf(class, "d%dx%d", &deg, &size); err != nil || size < 1 || v+size > n {
			return nil, fmt.Errorf("pattern: bad class %q in code %q", class, s)
		}
		var label uint32
		hasLabel := strings.Contains(class, "l")
		if hasLabel {
			if _, err := fmt.Sscanf(class[strings.IndexByte(class, 'l'):], "l%d", &label); err != nil {
				return nil, fmt.Errorf("pattern: bad label in class %q of code %q", class, s)
			}
		}
		for ; size > 0; size-- {
			if hasLabel {
				p.SetLabel(v, label)
			}
			v++
		}
	}
	adj := s[semi+1:]
	if v != n || len(adj) != n*(n-1)/2 || strings.Trim(adj, "01") != "" {
		return nil, fmt.Errorf("pattern: code %q does not describe %d vertices", s, n)
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if adj[k] == '1' {
				p.AddEdge(i, j)
			}
			k++
		}
	}
	return p, nil
}

// Unlabeled returns p's shape without its label constraints: p itself
// when it has no label slots, otherwise a copy.
func (p *Pattern) Unlabeled() *Pattern {
	if p.labels == nil {
		return p
	}
	return &Pattern{n: p.n, adj: append([]uint32(nil), p.adj...)}
}

// permuteInto enumerates all orderings of members appended to *perm,
// invoking fn for each.
func permuteInto(members []int, perm *[]int, fn func()) {
	if len(members) == 0 {
		fn()
		return
	}
	for i := range members {
		members[0], members[i] = members[i], members[0]
		*perm = append(*perm, members[0])
		permuteInto(members[1:], perm, fn)
		*perm = (*perm)[:len(*perm)-1]
		members[0], members[i] = members[i], members[0]
	}
}

// SpanningSubCount returns the number of spanning subgraphs of q that are
// isomorphic to p (both on the same number of vertices): the coefficient
// c(p,q) in the edge-induced -> vertex-induced conversion system
// cnt_ei(p) = Σ_q c(p,q)·cnt_vi(q).
func SpanningSubCount(p, q *Pattern) int64 {
	if p.n != q.n || p.NumEdges() > q.NumEdges() {
		return 0
	}
	// Count injective maps f: V(p)->V(q) with p-edges mapped to q-edges.
	var cnt int64
	f := make([]int, p.n)
	used := uint32(0)
	var rec func(i int)
	rec = func(i int) {
		if i == p.n {
			cnt++
			return
		}
		for c := 0; c < q.n; c++ {
			if used&(1<<uint(c)) != 0 {
				continue
			}
			if p.Degree(i) > q.Degree(c) {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if p.HasEdge(i, j) && !q.HasEdge(c, f[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			f[i] = c
			used |= 1 << uint(c)
			rec(i + 1)
			used &^= 1 << uint(c)
		}
	}
	rec(0)
	return cnt / p.AutomorphismCount()
}
