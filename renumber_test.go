package decomine

import (
	"math/rand"
	"testing"

	"decomine/internal/baseline"
	"decomine/internal/pattern"
)

// shuffledCopy rebuilds g with its input IDs relabelled by a random
// permutation: the same graph under another numbering.
func shuffledCopy(t *testing.T, g *Graph, r *rand.Rand) *Graph {
	t.Helper()
	n := g.NumVertices()
	perm := r.Perm(n)
	var edges [][2]uint32
	g.g.Edges(func(u, v uint32) {
		edges = append(edges, [2]uint32{uint32(perm[g.g.InputID(u)]), uint32(perm[g.g.InputID(v)])})
	})
	if !g.Labeled() {
		return NewGraph(n, edges)
	}
	labels := make([]uint32, n)
	for x := range perm {
		labels[perm[x]] = g.Label(uint32(x))
	}
	sg, err := NewLabeledGraph(n, edges, labels)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// TestRenumberingMetamorphic checks the vertex-renumbering relation:
// counts do not depend on the input IDs. Each graph is built as
// generated and with its input IDs shuffled; both must agree with each
// other and with the brute-force oracle on the 3–5-motif censuses, a
// constrained count and a vertex-induced count.
func TestRenumberingMetamorphic(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	r := rand.New(rand.NewSource(33))
	graphs := map[string]*Graph{
		"gnp":          GenerateGNP(40, 0.15, 331),
		"gnp-labeled":  GenerateGNP(40, 0.15, 332).WithRandomLabels(3, 333),
		"rmat":         GenerateRMAT(5, 4, 334),
		"rmat-labeled": GenerateRMAT(5, 4, 335).WithRandomLabels(3, 336),
	}
	house := pattern.MustParse("0-1,0-2,1-3,2-3,2-4,3-4")
	labeledCycle := pattern.MustParse("0-1,1-2,2-3,0-3")
	labeledCycle.SetLabel(0, 0)
	cons := []LabelConstraint{
		{Kind: AllSameLabel, Vertices: []int{0, 2}},
		{Kind: AllDifferentLabels, Vertices: []int{1, 3}},
	}
	for _, name := range []string{"gnp", "gnp-labeled", "rmat", "rmat-labeled"} {
		g := graphs[name]
		t.Run(name, func(t *testing.T) {
			systems := []*System{testSystem(t, g), testSystem(t, shuffledCopy(t, g, r))}
			for _, s := range systems {
				defer s.Close()
			}
			for k := 3; k <= 5; k++ {
				census := baseline.ObliviousMotifCensus(g.g, k)
				for i, s := range systems {
					counts, err := s.MotifCounts(k)
					if err != nil {
						t.Fatal(err)
					}
					for _, mc := range counts {
						if want := census[mc.Pattern.p.Canonical()]; mc.Count != want {
							t.Errorf("system %d, %d-motif %s: %d, census %d", i, k, mc.Pattern, mc.Count, want)
						}
					}
				}
			}
			cycleWant := brute(g, labeledCycle, cons)
			houseWant := brute(g, house, nil)
			for i, s := range systems {
				if got, err := s.CountWithConstraints(&Pattern{labeledCycle}, cons); err != nil || got != cycleWant.constrained {
					t.Errorf("system %d, constrained %s: %d (%v), brute force %d", i, labeledCycle, got, err, cycleWant.constrained)
				}
				if got, err := s.GetPatternCountVertexInduced(&Pattern{labeledCycle}); err != nil || got != cycleWant.vi {
					t.Errorf("system %d, vertex-induced %s: %d (%v), brute force %d", i, labeledCycle, got, err, cycleWant.vi)
				}
				if got, err := s.GetPatternCountVertexInduced(&Pattern{house}); err != nil || got != houseWant.vi {
					t.Errorf("system %d, vertex-induced house: %d (%v), brute force %d", i, got, err, houseWant.vi)
				}
			}
		})
	}
}
