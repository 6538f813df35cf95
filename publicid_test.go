package decomine

// The public edge speaks the IDs a graph was built with, while the
// engine mines a copy renumbered by degree. These tests use a graph
// whose degree order is far from the identity, so an internal ID that
// leaks through Label, HasEdge, WriteEdgeList, PartialEmbedding or
// Materialize lands on the wrong vertex.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"decomine/internal/pattern"
)

// starTail is a star centred on input vertex 0 with a chord 1-2 and a
// tail 4-5-6-7. By (degree, input ID) its internal order is
// 3 7 1 2 4 5 6 0: the centre becomes the last internal vertex.
var (
	starTailEdges  = [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {4, 5}, {5, 6}, {6, 7}}
	starTailLabels = []uint32{0, 1, 2, 1, 0, 2, 1, 0}
)

// inputGraph is an edge list and labels in input IDs, the reference the
// public answers are checked against.
type inputGraph struct {
	n      int
	edge   map[[2]uint32]bool // both directions
	labels []uint32
}

func newInputGraph(n int, edges [][2]uint32, labels []uint32) *inputGraph {
	in := &inputGraph{n: n, edge: map[[2]uint32]bool{}, labels: labels}
	for _, e := range edges {
		in.edge[e] = true
		in.edge[[2]uint32{e[1], e[0]}] = true
	}
	return in
}

// embeds reports why verts is not an embedding of p under the input
// edge list and labels, or "" when it is one.
func (in *inputGraph) embeds(p *pattern.Pattern, verts []uint32) string {
	if len(verts) != p.NumVertices() {
		return fmt.Sprintf("%d vertices for a %d-vertex pattern", len(verts), p.NumVertices())
	}
	for i, v := range verts {
		if int(v) >= in.n || slices.Contains(verts[:i], v) {
			return fmt.Sprintf("vertex %d out of range or repeated", v)
		}
		if l := p.Label(i); l != pattern.NoLabel && in.labels[v] != l {
			return fmt.Sprintf("vertex %d has label %d, pattern vertex %d wants %d", v, in.labels[v], i, l)
		}
		for j := 0; j < i; j++ {
			if p.HasEdge(i, j) && !in.edge[[2]uint32{verts[i], verts[j]}] {
				return fmt.Sprintf("no input edge %d-%d", verts[i], verts[j])
			}
		}
	}
	return ""
}

// extensions enumerates every tuple of p in the input graph whose
// vertex w is pins[w] wherever pinned[w].
func (in *inputGraph) extensions(p *pattern.Pattern, pins []uint32, pinned []bool) [][]uint32 {
	var out [][]uint32
	tuple := make([]uint32, p.NumVertices())
	var rec func(i int)
	rec = func(i int) {
		if i == len(tuple) {
			if in.embeds(p, tuple) == "" {
				out = append(out, slices.Clone(tuple))
			}
			return
		}
		if pinned[i] {
			tuple[i] = pins[i]
			rec(i + 1)
			return
		}
		for v := 0; v < in.n; v++ {
			tuple[i] = uint32(v)
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func TestPublicVertexIDs(t *testing.T) {
	n := len(starTailLabels)
	g, err := NewLabeledGraph(n, starTailEdges, starTailLabels)
	if err != nil {
		t.Fatal(err)
	}
	if g.g.InputID(uint32(n-1)) != 0 || g.g.InternalID(3) != 0 {
		t.Fatalf("degree order is not the one the fixture relies on")
	}
	in := newInputGraph(n, starTailEdges, starTailLabels)

	t.Run("Label and HasEdge", func(t *testing.T) {
		for u := uint32(0); u < uint32(n); u++ {
			if got := g.Label(u); got != in.labels[u] {
				t.Errorf("Label(%d) = %d, want %d", u, got, in.labels[u])
			}
			for v := uint32(0); v < uint32(n); v++ {
				if got := g.HasEdge(u, v); got != in.edge[[2]uint32{u, v}] {
					t.Errorf("HasEdge(%d,%d) = %v", u, v, got)
				}
			}
		}
	})

	labeledWedge := pattern.MustParse("0-1,1-2")
	labeledWedge.SetLabel(1, 0)
	pats := []*pattern.Pattern{
		pattern.MustParse("0-1,1-2"),
		pattern.MustParse("0-1,1-2,2-3"),
		pattern.MustParse("0-1,0-2,0-3"),
		pattern.MustParse("0-1,1-2,0-2,2-3"),
		labeledWedge,
	}
	sys := testSystem(t, g)
	defer sys.Close()
	for _, p := range pats {
		t.Run("embeddings of "+p.String(), func(t *testing.T) {
			var perWorker [][]*PartialEmbedding
			err := sys.ProcessPartialEmbeddings(&Pattern{p}, func(worker int) UDF {
				perWorker = append(perWorker, nil)
				slot := len(perWorker) - 1
				return func(pe *PartialEmbedding, count int64) {
					cp := *pe
					cp.Vertices = slices.Clone(pe.Vertices)
					perWorker[slot] = append(perWorker[slot], &cp)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var pes []*PartialEmbedding
			for _, w := range perWorker {
				pes = append(pes, w...)
			}
			if len(pes) == 0 {
				t.Fatal("no partial embeddings")
			}
			for _, pe := range pes {
				if why := in.embeds(pe.Subpattern.p, pe.Vertices); why != "" {
					t.Fatalf("partial embedding %v of %s: %s", pe.Vertices, pe.Subpattern, why)
				}
			}
			// Materialize takes input-ID pins and returns exactly the
			// input-ID extensions of each partial embedding.
			for _, pe := range pes {
				pins := make([]uint32, p.NumVertices())
				pinned := make([]bool, p.NumVertices())
				for i, w := range pe.WholeVertex {
					pins[w], pinned[w] = pe.Vertices[i], true
				}
				want := in.extensions(p, pins, pinned)
				got, err := sys.Materialize(&Pattern{p}, pe, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				for _, tuple := range got {
					if why := in.embeds(p, tuple); why != "" {
						t.Fatalf("materialized %v from %v: %s", tuple, pe.Vertices, why)
					}
				}
				slices.SortFunc(got, slices.Compare)
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("materialized %v from %v, want %v", got, pe.Vertices, want)
				}
			}
		})
	}

	t.Run("out-of-range pin", func(t *testing.T) {
		p := pattern.MustParse("0-1,1-2")
		pe := &PartialEmbedding{Vertices: []uint32{uint32(n)}, WholeVertex: []int{1}}
		if _, err := sys.Materialize(&Pattern{p}, pe, 1); err == nil {
			t.Fatal("Materialize accepted a vertex past |V|")
		}
	})

	t.Run("edge list round trip", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.txt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.WriteEdgeList(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var labels strings.Builder
		for v := 0; v < n; v++ {
			fmt.Fprintln(&labels, g.Label(uint32(v)))
		}
		if err := os.WriteFile(path+".labels", []byte(labels.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		// The written edges are the input edges, u < v, in input order.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var written [][2]uint32
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		for sc.Scan() {
			var u, v uint32
			if line := sc.Text(); !strings.HasPrefix(line, "#") {
				if _, err := fmt.Sscan(line, &u, &v); err != nil {
					t.Fatal(err)
				}
				written = append(written, [2]uint32{u, v})
			}
		}
		want := slices.Clone(starTailEdges)
		slices.SortFunc(want, func(a, b [2]uint32) int { return slices.Compare(a[:], b[:]) })
		if !slices.Equal(written, want) {
			t.Fatalf("wrote edges %v, want %v", written, want)
		}
		lg, err := LoadGraph(path)
		if err != nil {
			t.Fatal(err)
		}
		if lg.NumVertices() != n || lg.NumEdges() != int64(len(starTailEdges)) {
			t.Fatalf("reloaded |V|=%d |E|=%d", lg.NumVertices(), lg.NumEdges())
		}
		for u := uint32(0); u < uint32(n); u++ {
			if lg.Label(u) != in.labels[u] {
				t.Errorf("reloaded Label(%d) = %d, want %d", u, lg.Label(u), in.labels[u])
			}
			for v := uint32(0); v < uint32(n); v++ {
				if lg.HasEdge(u, v) != in.edge[[2]uint32{u, v}] {
					t.Errorf("reloaded HasEdge(%d,%d) = %v", u, v, lg.HasEdge(u, v))
				}
			}
		}
	})
}
