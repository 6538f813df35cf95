package decomp

import (
	"testing"

	"decomine/internal/pattern"
)

func TestCuttingSetsChain(t *testing.T) {
	// 0-1-2: only removing the middle vertex cuts it.
	cuts := CuttingSets(pattern.Chain(3))
	if len(cuts) != 1 || cuts[0] != 1<<1 {
		t.Fatalf("chain-3 cuts = %v", cuts)
	}
}

func TestCuttingSetsCycle4(t *testing.T) {
	// C4: the two opposite pairs cut it.
	cuts := CuttingSets(pattern.Cycle(4))
	if len(cuts) != 2 {
		t.Fatalf("C4 cuts = %v", cuts)
	}
	want := map[uint32]bool{1<<0 | 1<<2: true, 1<<1 | 1<<3: true}
	for _, c := range cuts {
		if !want[c] {
			t.Errorf("unexpected cut %b", c)
		}
	}
}

func TestCuttingSetsClique(t *testing.T) {
	if cuts := CuttingSets(pattern.Clique(4)); len(cuts) != 0 {
		t.Fatalf("clique should have no cutting sets, got %v", cuts)
	}
}

func TestCuttingSetsChain5(t *testing.T) {
	// Every cutting set of P5 must contain at least one internal vertex.
	cuts := CuttingSets(pattern.Chain(5))
	if len(cuts) == 0 {
		t.Fatal("no cuts for chain-5")
	}
	for _, c := range cuts {
		if c&(1<<1|1<<2|1<<3) == 0 {
			t.Errorf("cut %b contains no internal vertex", c)
		}
	}
}

func TestDecomposeChain3(t *testing.T) {
	p := pattern.Chain(3)
	d, err := Decompose(p, 1<<1)
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 2 {
		t.Fatalf("K = %d", d.K())
	}
	for _, sp := range d.Subpatterns {
		if sp.Pat.NumVertices() != 2 || sp.Pat.NumEdges() != 1 {
			t.Errorf("subpattern %s not an edge", sp.Pat)
		}
		if sp.ToWhole[0] != 1 { // cut vertex first
			t.Errorf("ToWhole = %v", sp.ToWhole)
		}
	}
	// One shrinkage: merge {0,2} -> path quotient becomes a single edge.
	if len(d.Shrinkages) != 1 {
		t.Fatalf("shrinkages = %d", len(d.Shrinkages))
	}
	s := d.Shrinkages[0]
	if s.Pat.NumVertices() != 2 || s.Pat.NumEdges() != 1 {
		t.Fatalf("quotient = %s", s.Pat)
	}
	if len(s.Blocks) != 1 || len(s.Blocks[0]) != 2 {
		t.Fatalf("blocks = %v", s.Blocks)
	}
	// Projections: both subpatterns' extension vertex maps to quotient vertex 1.
	for i := range d.Subpatterns {
		if s.Proj[i][0] != 0 || s.Proj[i][1] != 1 {
			t.Fatalf("proj[%d] = %v", i, s.Proj[i])
		}
	}
}

func TestDecomposeCycle4(t *testing.T) {
	p := pattern.Cycle(4)
	d, err := Decompose(p, 1<<0|1<<2)
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 2 {
		t.Fatalf("K = %d", d.K())
	}
	for _, sp := range d.Subpatterns {
		// Each subpattern: cut {0,2} + one of {1},{3} = a 3-chain.
		if !pattern.Isomorphic(sp.Pat, pattern.Chain(3)) {
			t.Errorf("subpattern %s not a 3-chain", sp.Pat)
		}
	}
	if len(d.Shrinkages) != 1 {
		t.Fatalf("shrinkages = %d", len(d.Shrinkages))
	}
	// Quotient: vertices {0,2,merged}, edges 0-m, 2-m: a 3-chain.
	if !pattern.Isomorphic(d.Shrinkages[0].Pat, pattern.Chain(3)) {
		t.Errorf("quotient %s not a 3-chain", d.Shrinkages[0].Pat)
	}
}

func TestDecomposeFig6(t *testing.T) {
	p := pattern.Fig6Pattern()
	d, err := Decompose(p, 1<<0|1<<1|1<<3)
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 2 {
		t.Fatalf("K = %d", d.K())
	}
	for _, sp := range d.Subpatterns {
		if sp.Pat.NumVertices() != 4 {
			t.Errorf("subpattern size %d", sp.Pat.NumVertices())
		}
	}
	// Components are single vertices C and E -> exactly one shrinkage
	// (merge C with E).
	if len(d.Shrinkages) != 1 {
		t.Fatalf("shrinkages = %d", len(d.Shrinkages))
	}
	s := d.Shrinkages[0]
	if s.Pat.NumVertices() != 4 {
		t.Fatalf("quotient size %d", s.Pat.NumVertices())
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(pattern.Clique(3), 1<<0); err == nil {
		t.Error("K3 with 1-vertex cut should fail")
	}
	if _, err := Decompose(pattern.MustParse("0-1,2-3"), 1<<0); err == nil {
		t.Error("disconnected pattern should fail")
	}
}

func TestShrinkagePartitionCount(t *testing.T) {
	// Star with center cut: components are k-1 singleton leaves.
	// Merge partitions of m distinguishable elements with no two in the
	// same block forbidden... here all leaves are separate components, so
	// any set partition of the leaves with a block of size >= 2 counts:
	// Bell(m) - 1 partitions... minus none. For 3 leaves: Bell(3)-... the
	// partitions with at least one block >=2: Bell(3)=5 total, 1 trivial
	// (all singletons) -> 4.
	d, err := Decompose(pattern.Star(4), 1<<0)
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 3 {
		t.Fatalf("K = %d", d.K())
	}
	if len(d.Shrinkages) != 4 {
		t.Fatalf("shrinkages = %d, want 4", len(d.Shrinkages))
	}
}

func TestShrinkageRespectsComponents(t *testing.T) {
	// Two components of size 2 (chain-5 cut at middle): merges must pick
	// at most one vertex per component per block.
	d, err := Decompose(pattern.Chain(5), 1<<2)
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 2 {
		t.Fatalf("K = %d", d.K())
	}
	compOf := map[int]int{0: 0, 1: 0, 3: 1, 4: 1}
	for _, s := range d.Shrinkages {
		for _, b := range s.Blocks {
			if len(b) > 2 {
				t.Errorf("block %v too large for 2 components", b)
			}
			if len(b) == 2 && compOf[b[0]] == compOf[b[1]] {
				t.Errorf("block %v merges same-component vertices", b)
			}
		}
	}
	// Partitions: pairs (0|1)x(3|4) singly merged: 4, doubly merged: 2
	// ({0,3},{1,4} and {0,4},{1,3}) -> 6 total.
	if len(d.Shrinkages) != 6 {
		t.Fatalf("shrinkages = %d, want 6", len(d.Shrinkages))
	}
}

func TestShrinkageLabelCompatibility(t *testing.T) {
	p := pattern.Chain(3)
	p.SetLabel(0, 1)
	p.SetLabel(2, 2) // endpoints differently labeled: cannot merge
	d, err := Decompose(p, 1<<1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Shrinkages) != 0 {
		t.Fatalf("incompatible labels should prevent merge, got %d", len(d.Shrinkages))
	}
	p2 := pattern.Chain(3)
	p2.SetLabel(0, 1)
	p2.SetLabel(2, 1) // same label: merge allowed, quotient keeps label
	d2, err := Decompose(p2, 1<<1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Shrinkages) != 1 {
		t.Fatalf("want 1 shrinkage, got %d", len(d2.Shrinkages))
	}
	if d2.Shrinkages[0].Pat.Label(1) != 1 {
		t.Fatalf("quotient label = %d", d2.Shrinkages[0].Pat.Label(1))
	}
}

func TestCutPattern(t *testing.T) {
	d, err := Decompose(pattern.Fig6Pattern(), 1<<0|1<<1|1<<3)
	if err != nil {
		t.Fatal(err)
	}
	// Cut {A,B,D} induces a triangle in fig6.
	if !pattern.Isomorphic(d.CutPattern(), pattern.Clique(3)) {
		t.Fatalf("cut pattern = %s", d.CutPattern())
	}
}

func TestSubpatternEdgesComeFromWhole(t *testing.T) {
	p := pattern.Fig6Pattern()
	for _, cut := range CuttingSets(p) {
		d, err := Decompose(p, cut)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range d.Subpatterns {
			for u := 0; u < sp.Pat.NumVertices(); u++ {
				for v := u + 1; v < sp.Pat.NumVertices(); v++ {
					if sp.Pat.HasEdge(u, v) != p.HasEdge(sp.ToWhole[u], sp.ToWhole[v]) {
						t.Fatalf("cut %b: subpattern edge mismatch at (%d,%d)", cut, u, v)
					}
				}
			}
		}
	}
}

// TestDecomposeFillsInvariants: Decompose stores each shrinkage's
// canonical code and automorphism count, and the pattern's own
// automorphism count, so plan generation reads them once per
// decomposition.
func TestDecomposeFillsInvariants(t *testing.T) {
	house := pattern.House()
	labeled := pattern.Cycle(5)
	labeled.SetLabel(0, 2)
	labeled.SetLabel(3, 1)
	for _, p := range []*pattern.Pattern{house, labeled, pattern.Chain(5)} {
		for _, cut := range CuttingSets(p) {
			d, err := Decompose(p, cut)
			if err != nil {
				t.Fatal(err)
			}
			if d.Aut != p.AutomorphismCount() {
				t.Errorf("%s cut %b: Aut %d, want %d", p, cut, d.Aut, p.AutomorphismCount())
			}
			for _, s := range d.Shrinkages {
				if s.Code != s.Pat.Canonical() || s.Aut != s.Pat.AutomorphismCount() {
					t.Errorf("%s cut %b: shrinkage %s has code %q aut %d, want %q %d",
						p, cut, s.Pat, s.Code, s.Aut, s.Pat.Canonical(), s.Pat.AutomorphismCount())
				}
			}
		}
	}
}
