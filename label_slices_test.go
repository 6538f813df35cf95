package decomine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"decomine/internal/pattern"
)

// TestDifferentialLabelSlices checks labeled queries whose candidate
// sets are label slices of the adjacency — and intersections of them —
// against brute-force enumeration at 1 and 2 threads: 5-vertex patterns
// in which a labeled vertex has at least two bound neighbors, a label
// no vertex carries, a graph loaded with sparse label values, an
// AllSameLabel group constraint, and FSM supports against a tuple-MNI
// oracle.
func TestDifferentialLabelSlices(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	// Every 5-vertex shape here closes a cycle, so whatever the matching
	// order some vertex is matched with two bound neighbors.
	shapes := []string{
		"0-1,1-2,2-3,3-0,0-4,1-4",         // house
		"0-1,0-2,0-3,0-4,1-2,3-4",         // bowtie
		"0-1,0-2,0-3,1-2,1-3,2-3,3-4",     // K4 plus a pendant
		"0-1,1-2,2-3,3-4,4-0,0-2",         // 5-cycle with a chord
		"0-1,0-2,1-2,1-3,2-3,2-4,3-4,0-4", // dense 5-vertex
	}
	gnp := GenerateGNP(60, 0.15, 901).WithRandomLabels(3, 902)
	sparse := sparseLabelGraph(t, []uint32{7, 90001, 4294967290})
	for _, c := range []struct {
		name   string
		g      *Graph
		labels []uint32 // the labels the graph carries
	}{
		{"gnp", gnp, []uint32{0, 1, 2}},
		{"sparse", sparse, []uint32{7, 90001, 4294967290}},
	} {
		r := rand.New(rand.NewSource(903))
		for i, s := range shapes {
			p := pattern.MustParse(s)
			for v := 0; v < p.NumVertices(); v++ {
				if r.Intn(5) > 0 { // most vertices labeled, some wildcards
					p.SetLabel(v, c.labels[r.Intn(len(c.labels))])
				}
			}
			if i == len(shapes)-1 {
				p.SetLabel(4, 12345) // a label no vertex carries: no embeddings
			}
			want := brute(c.g, p, nil).ei
			if i == len(shapes)-1 && want != 0 {
				t.Fatalf("%s %s: oracle found %d embeddings with an absent label", c.name, p, want)
			}
			for _, threads := range []int{1, 2} {
				got, err := labelSliceSystem(t, c.g, threads).GetPatternCount(&Pattern{p})
				if err != nil {
					t.Fatalf("%s %s threads %d: %v", c.name, p, threads, err)
				}
				if got != want {
					t.Errorf("%s %s threads %d: DecoMine %d, brute %d", c.name, p, threads, got, want)
				}
			}
		}

		// A static label and an AllSameLabel group over the rest of a
		// house: the group's filters read a bound vertex's label.
		p := pattern.MustParse(shapes[0])
		p.SetLabel(4, c.labels[0])
		cons := []LabelConstraint{{Kind: AllSameLabel, Vertices: []int{0, 1, 2, 3}}}
		want := brute(c.g, p, cons).constrained
		for _, threads := range []int{1, 2} {
			got, err := labelSliceSystem(t, c.g, threads).CountWithConstraints(&Pattern{p}, cons)
			if err != nil {
				t.Fatalf("%s constrained threads %d: %v", c.name, threads, err)
			}
			if got != want {
				t.Errorf("%s constrained %s threads %d: DecoMine %d, brute %d", c.name, p, threads, got, want)
			}
		}

		// FSM up to three edges: triangles intersect two label slices.
		const tau = 4
		want3 := bruteFrequent(c.g, c.labels, tau)
		for _, threads := range []int{1, 2} {
			res, err := labelSliceSystem(t, c.g, threads).FSM(tau, 3)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int64{}
			for _, fp := range res {
				got[string(fp.Pattern.p.Canonical())] = fp.Support
			}
			if len(got) != len(want3) {
				t.Errorf("%s threads %d: FSM found %d frequent patterns, brute %d", c.name, threads, len(got), len(want3))
			}
			for code, sup := range want3 {
				if got[code] != sup {
					t.Errorf("%s threads %d: pattern %.40q: FSM support %d, brute %d", c.name, threads, code, got[code], sup)
				}
			}
		}
	}
}

// labelSliceSystem returns a System on g, closed when the test ends.
func labelSliceSystem(t *testing.T, g *Graph, threads int) *System {
	s := NewSystem(g, Options{Threads: threads, ProfileSampleEdges: 1000, ProfileTrials: 1000})
	t.Cleanup(s.Close)
	return s
}

// sparseLabelGraph loads a G(n,p) edge list and a labels file that
// draws each vertex's label from vals, through LoadGraph.
func sparseLabelGraph(t *testing.T, vals []uint32) *Graph {
	t.Helper()
	src := GenerateGNP(50, 0.18, 904)
	path := filepath.Join(t.TempDir(), "sparse.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(905))
	var labels []byte
	for v := 0; v < src.NumVertices(); v++ {
		labels = fmt.Appendf(labels, "%d\n", vals[r.Intn(len(vals))])
	}
	if err := os.WriteFile(path+".labels", labels, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bruteFrequent enumerates every labeling over labels of the connected
// shapes with at most three edges, computes each one's MNI support by
// tuple enumeration and keeps the frequent ones by canonical code.
func bruteFrequent(g *Graph, labels []uint32, tau int64) map[string]int64 {
	shapes := []*pattern.Pattern{pattern.Chain(2), pattern.Chain(3), pattern.Chain(4), pattern.Star(4), pattern.Cycle(3)}
	want := map[string]int64{}
	for _, s := range shapes {
		n := s.NumVertices()
		combos := 1
		for i := 0; i < n; i++ {
			combos *= len(labels)
		}
		for c := 0; c < combos; c++ {
			p := s.Clone()
			for v, x := 0, c; v < n; v, x = v+1, x/len(labels) {
				p.SetLabel(v, labels[x%len(labels)])
			}
			if sup := tupleMNI(g, p); sup >= tau {
				want[string(p.Canonical())] = sup
			}
		}
	}
	return want
}

// tupleMNI is bruteMNI over forEachTuple's enumeration: the minimum,
// over pattern vertices, of how many distinct graph vertices that
// pattern vertex maps to.
func tupleMNI(g *Graph, p *pattern.Pattern) int64 {
	domains := make([]map[uint32]bool, p.NumVertices())
	for i := range domains {
		domains[i] = map[uint32]bool{}
	}
	forEachTuple(g, p, func(bound []uint32) {
		for i, v := range bound {
			domains[i][v] = true
		}
	})
	sup := int64(-1)
	for _, d := range domains {
		if sup < 0 || int64(len(d)) < sup {
			sup = int64(len(d))
		}
	}
	return sup
}
