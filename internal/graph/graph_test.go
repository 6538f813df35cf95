package graph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"decomine/internal/vset"
)

// triangle plus a pendant: 0-1, 1-2, 0-2, 2-3. By (degree, input ID)
// the internal order is 3, 0, 1, 2.
func testGraph() *Graph {
	return FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
}

// inputNeighbors returns the sorted neighbors of input vertex x, in
// input IDs, so expectations can be written against the edge list a
// graph was built from.
func inputNeighbors(g *Graph, x uint32) []uint32 {
	var out []uint32
	for _, v := range g.Neighbors(g.InternalID(x)) {
		out = append(out, g.InputID(v))
	}
	slices.Sort(out)
	return out
}

func TestBuildBasics(t *testing.T) {
	g := testGraph()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if want := []uint32{3, 0, 1, 2}; !slices.Equal(g.order, want) {
		t.Fatalf("order = %v, want %v", g.order, want)
	}
	wantAdj := map[uint32][]uint32{
		0: {1, 2},
		1: {0, 2},
		2: {0, 1, 3},
		3: {2},
	}
	for x, want := range wantAdj {
		if got := inputNeighbors(g, x); !vset.Equal(got, want) {
			t.Errorf("input vertex %d: neighbors %v, want %v", x, got, want)
		}
	}
	// Internal lists are strictly increasing internal IDs.
	wantInternal := [][]uint32{{3}, {2, 3}, {1, 3}, {0, 1, 2}}
	for v, want := range wantInternal {
		if got := g.Neighbors(uint32(v)); !vset.Equal(got, want) {
			t.Errorf("Neighbors(%d) = %v, want %v", v, got, want)
		}
	}
	if g.Degree(g.InternalID(2)) != 3 || g.Degree(g.InternalID(3)) != 1 {
		t.Errorf("degrees wrong: %d %d", g.Degree(g.InternalID(2)), g.Degree(g.InternalID(3)))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestBuildDedupAndSelfLoops(t *testing.T) {
	g := FromEdges(3, [][2]uint32{
		{0, 1}, {1, 0}, {0, 1}, // duplicates both directions
		{1, 1}, // self loop
		{1, 2},
	})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := inputNeighbors(g, 1); !vset.Equal(got, []uint32{0, 2}) {
		t.Fatalf("input vertex 1: neighbors %v", got)
	}
}

func TestHasEdge(t *testing.T) {
	g := testGraph()
	cases := []struct {
		u, v uint32
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {2, 3, true}, {0, 3, false}, {1, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(g.InternalID(c.u), g.InternalID(c.v)); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v", c.u, c.v, got)
		}
	}
}

func TestEdgesIteration(t *testing.T) {
	g := testGraph()
	var edges [][2]uint32
	g.Edges(func(u, v uint32) { edges = append(edges, [2]uint32{u, v}) })
	if len(edges) != 4 {
		t.Fatalf("Edges visited %d, want 4", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not ordered", e)
		}
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetLabels([]uint32{5, 7, 5})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Input vertex 1 has the highest degree, so it is internal vertex 2.
	if g.InternalID(1) != 2 {
		t.Fatalf("InternalID(1) = %d, want 2", g.InternalID(1))
	}
	if !g.Labeled() || g.Label(g.InternalID(1)) != 7 || g.Label(g.InternalID(2)) != 5 {
		t.Fatalf("labels wrong: %v %d %d", g.Labeled(), g.Label(g.InternalID(1)), g.Label(g.InternalID(2)))
	}
	if g.NumLabels() != 2 {
		t.Fatalf("NumLabels = %d", g.NumLabels())
	}
	b2 := NewBuilder(3)
	b2.SetLabels([]uint32{1})
	if _, err := b2.Build(); err == nil {
		t.Fatal("want error for mismatched labels")
	}
}

func TestLoadEdgeListRoundTrip(t *testing.T) {
	in := "# comment\n0 1\n1 2\n\n% another comment\n0 2\n2 3\n"
	g, err := LoadEdgeList(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("loaded %d/%d", g.NumVertices(), g.NumEdges())
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(&buf, "t2")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip %d/%d vs %d/%d", g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	if _, err := LoadEdgeList(strings.NewReader("0\n"), "t"); err == nil {
		t.Error("want error for 1-field line")
	}
	if _, err := LoadEdgeList(strings.NewReader("a b\n"), "t"); err == nil {
		t.Error("want error for non-numeric vertex")
	}
	if _, err := LoadEdgeList(strings.NewReader("0 -1\n"), "t"); err == nil {
		t.Error("want error for negative vertex")
	}
}

func TestGNPProperties(t *testing.T) {
	g := GNP(500, 0.02, 1)
	// Expected edges = C(500,2)*0.02 ≈ 2495. Allow wide tolerance.
	m := g.NumEdges()
	if m < 2000 || m > 3000 {
		t.Fatalf("GNP edges = %d, want ~2495", m)
	}
	// Determinism.
	g2 := GNP(500, 0.02, 1)
	if g2.NumEdges() != m {
		t.Fatal("GNP not deterministic")
	}
	if GNP(500, 0.02, 2).NumEdges() == m {
		t.Log("different seeds gave same edge count (possible but unlikely)")
	}
	// Degenerate cases.
	if GNP(1, 0.5, 1).NumEdges() != 0 {
		t.Error("GNP(1) should have no edges")
	}
	if GNP(10, 0, 1).NumEdges() != 0 {
		t.Error("GNP p=0 should have no edges")
	}
	if GNP(10, 1, 1).NumEdges() != 45 {
		t.Error("GNP p=1 should be complete")
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(12, 8, 3)
	if g.NumVertices() != 4096 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	// Power-law-ish: max degree far above average.
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Fatalf("RMAT not skewed: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestSmallWorldClustering(t *testing.T) {
	g := SmallWorld(400, 8, 0.1, 5)
	if g.NumVertices() != 400 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	// Ring lattice with low rewiring: triangles abound. Count via wedges.
	tri := 0
	g.Edges(func(u, v uint32) {
		tri += int(vset.IntersectCount(g.Neighbors(u), g.Neighbors(v)))
	})
	if tri == 0 {
		t.Fatal("small world graph has no triangles")
	}
}

func TestWithRandomLabels(t *testing.T) {
	g := GNP(200, 0.05, 7).WithRandomLabels(5, 8)
	if !g.Labeled() {
		t.Fatal("not labeled")
	}
	seen := map[uint32]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		l := g.Label(uint32(v))
		if l >= 5 {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	if len(seen) < 2 {
		t.Fatal("labels not diverse")
	}
	// Deterministic.
	g2 := GNP(200, 0.05, 7).WithRandomLabels(5, 8)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Label(uint32(v)) != g2.Label(uint32(v)) {
			t.Fatal("labels not deterministic")
		}
	}
	// Drawn in input-ID order: a seed labels each input vertex the same
	// way whatever the degree order, here a star centred on input 0 and
	// one centred on input 9.
	star := func(c uint32) *Graph {
		b := NewBuilder(10)
		for v := uint32(0); v < 10; v++ {
			if v != c {
				b.AddEdge(c, v)
			}
		}
		g, _ := b.Build()
		return g.WithRandomLabels(5, 8)
	}
	s0, s9 := star(0), star(9)
	if s0.InternalID(0) == s9.InternalID(0) {
		t.Fatal("the two stars number input vertex 0 alike")
	}
	for x := uint32(0); x < 10; x++ {
		if l0, l9 := s0.Label(s0.InternalID(x)), s9.Label(s9.InternalID(x)); l0 != l9 {
			t.Fatalf("input vertex %d: labels %d and %d", x, l0, l9)
		}
	}
}

func TestSampleEdges(t *testing.T) {
	g := GNP(300, 0.05, 11)
	m := int(g.NumEdges())
	got := g.SampleEdges(50, 12)
	if len(got) != 50 {
		t.Fatalf("sampled %d, want 50", len(got))
	}
	seen := map[[2]uint32]bool{}
	for _, e := range got {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("sampled non-edge %v", e)
		}
		if seen[e] {
			t.Fatalf("duplicate sample %v", e)
		}
		seen[e] = true
	}
	// Sampling more than |E| returns all edges.
	all := g.SampleEdges(m+100, 12)
	if len(all) != m {
		t.Fatalf("oversample returned %d, want %d", len(all), m)
	}
}

func TestEdgeSampledSubgraph(t *testing.T) {
	g := MustDataset("ee")
	sub := g.EdgeSampledSubgraph(1000, 13)
	if sub.NumEdges() > 1000 || sub.NumEdges() < 900 {
		// Dedup can only shrink; reservoir gives exactly 1000 distinct edges.
		t.Fatalf("sampled subgraph has %d edges", sub.NumEdges())
	}
	if sub.NumVertices() == 0 || sub.NumVertices() > 2000 {
		t.Fatalf("sampled subgraph has %d vertices", sub.NumVertices())
	}
}

func TestDatasets(t *testing.T) {
	for _, name := range DatasetNames() {
		if name == "fr" || name == "rmat" || name == "lj" {
			continue // big ones exercised by the harness, not unit tests
		}
		g, err := Dataset(name)
		if err != nil {
			t.Fatalf("Dataset(%q): %v", name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("dataset %q empty: %s", name, g)
		}
		// Cached: same pointer.
		g2, _ := Dataset(name)
		if g != g2 {
			t.Errorf("dataset %q not cached", name)
		}
	}
	if _, err := Dataset("nope"); err == nil {
		t.Error("want error for unknown dataset")
	}
}

func TestQuickAdjacencySymmetricSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		b := NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(uint32(r.Intn(n)), uint32(r.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for v := 0; v < g.NumVertices(); v++ {
			nb := g.Neighbors(uint32(v))
			if !vset.IsSorted(nb) {
				return false
			}
			for _, u := range nb {
				if u == uint32(v) {
					return false // self loop survived
				}
				if !vset.Contains(g.Neighbors(u), uint32(v)) {
					return false // asymmetric
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRootVertexSets checks the graph-owned identity and per-label
// lists: built once, sorted, exactly the vertices carrying each label,
// and never shared with a shallow copy that relabels.
func TestRootVertexSets(t *testing.T) {
	base := GNP(300, 0.02, 4)
	a := base.WithRandomLabels(3, 5)
	b := a.WithRandomLabels(4, 6)
	// Plans are prepared on several goroutines at once: the first calls
	// race to build the lists, and all must get the same ones.
	var wg sync.WaitGroup
	got := make([][]uint32, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = b.VerticesWithLabel(uint32(i % 2))
			b.Vertices()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) == 0 || &got[i][0] != &got[i%2][0] {
			t.Fatalf("goroutine %d got a different label-%d list", i, i%2)
		}
	}
	if ids := base.Vertices(); len(ids) != 300 || &ids[0] != &a.Vertices()[0] || &ids[0] != &base.Vertices()[0] {
		t.Fatal("identity slice is not built once and shared")
	}
	for i, v := range base.Vertices() {
		if v != uint32(i) {
			t.Fatalf("Vertices()[%d] = %d", i, v)
		}
	}
	if got := base.VerticesWithLabel(0); len(got) != 300 || base.VerticesWithLabel(1) != nil {
		t.Fatalf("unlabeled graph: label 0 has %d vertices, label 1 %d", len(got), len(base.VerticesWithLabel(1)))
	}
	for _, g := range []*Graph{a, b, a.Rename("again")} {
		total := 0
		for l := uint32(0); l < 5; l++ {
			want := []uint32{}
			for v := 0; v < g.NumVertices(); v++ {
				if g.Label(uint32(v)) == l {
					want = append(want, uint32(v))
				}
			}
			got := g.VerticesWithLabel(l)
			if !vset.Equal(got, want) {
				t.Fatalf("%s label %d: got %v, want %v", g.Name(), l, got, want)
			}
			if len(got) > 0 && &got[0] != &g.VerticesWithLabel(l)[0] {
				t.Fatalf("%s label %d: list rebuilt on the second call", g.Name(), l)
			}
			total += len(got)
		}
		if total != g.NumVertices() {
			t.Fatalf("%s: label lists cover %d of %d vertices", g.Name(), total, g.NumVertices())
		}
	}
}

// requireOrientedLists checks NeighborsAbove and NeighborsBelow of
// every vertex against slicing its full list by binary search.
func requireOrientedLists(t *testing.T, what string, g *Graph) {
	t.Helper()
	for v := range uint32(g.NumVertices()) {
		nb := g.Neighbors(v)
		if got, want := g.NeighborsAbove(v), vset.SliceAbove(nb, v); !slices.Equal(got, want) {
			t.Fatalf("%s: NeighborsAbove(%d) = %v, want %v", what, v, got, want)
		}
		if got, want := g.NeighborsBelow(v), vset.SliceBelow(nb, v); !slices.Equal(got, want) {
			t.Fatalf("%s: NeighborsBelow(%d) = %v, want %v", what, v, got, want)
		}
	}
}

// FuzzVertexOrder builds a random labeled edge list and checks the
// (degree, input ID) renumbering: order and rank are inverse
// bijections, internal degrees never decrease and ties keep input
// order, and every input edge and label is present under rank. The
// oriented lists (NeighborsAbove/NeighborsBelow) must match slicing
// N(v) at v on the heap graph, its slab-mapped twin and a relabelled
// shallow copy, which shares the heap graph's split offsets.
func FuzzVertexOrder(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(20))
	f.Add(int64(2), uint8(1), uint16(0))
	f.Add(int64(3), uint8(64), uint16(400))
	f.Fuzz(func(t *testing.T, seed int64, n8 uint8, m uint16) {
		n := int(n8)
		if n == 0 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		edges := make([][2]uint32, int(m)%1024)
		for i := range edges {
			edges[i] = [2]uint32{uint32(r.Intn(n)), uint32(r.Intn(n))}
			b.AddEdge(edges[i][0], edges[i][1])
		}
		labels := make([]uint32, n)
		for i := range labels {
			labels[i] = uint32(r.Intn(4))
		}
		b.SetLabels(labels)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if len(g.order) != n || len(g.rank) != n {
			t.Fatalf("order/rank lengths %d/%d, want %d", len(g.order), len(g.rank), n)
		}
		for v, x := range g.order {
			if int(x) >= n || g.rank[x] != uint32(v) {
				t.Fatalf("order[%d] = %d is not undone by rank", v, x)
			}
		}
		for v := 1; v < n; v++ {
			d0, d1 := g.Degree(uint32(v-1)), g.Degree(uint32(v))
			if d0 > d1 || (d0 == d1 && g.order[v-1] > g.order[v]) {
				t.Fatalf("internal %d, %d: (degree, input) (%d, %d) after (%d, %d)", v-1, v, d1, g.order[v], d0, g.order[v-1])
			}
		}
		distinct := map[[2]uint32]bool{}
		for _, e := range edges {
			if e[0] == e[1] {
				continue
			}
			distinct[[2]uint32{min(e[0], e[1]), max(e[0], e[1])}] = true
			if !g.HasEdge(g.rank[e[0]], g.rank[e[1]]) {
				t.Fatalf("input edge %v missing under rank", e)
			}
		}
		if g.NumEdges() != int64(len(distinct)) {
			t.Fatalf("%d edges, want %d", g.NumEdges(), len(distinct))
		}
		for x, l := range labels {
			if got := g.Label(g.rank[x]); got != l {
				t.Fatalf("input vertex %d: label %d, want %d", x, got, l)
			}
		}
		requireOrientedLists(t, "heap", g)
		path := filepath.Join(t.TempDir(), "g.slab")
		if err := g.WriteSlabFile(path); err != nil {
			t.Fatal(err)
		}
		mg, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		requireOrientedLists(t, "mapped", mg)
		mg.Close()
		c := g.WithRandomLabels(3, seed)
		requireOrientedLists(t, "relabelled copy", c)
		if len(c.split) > 0 && &c.split[0] != &g.split[0] {
			t.Fatal("relabelled copy does not share the split offsets")
		}
	})
}
