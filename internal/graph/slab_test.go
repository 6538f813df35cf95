package graph

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decomine/internal/vset"
)

// requireSameGraph asserts a and b answer every accessor identically —
// the contract a heap graph and its mmap-backed slab file must keep.
func requireSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	if a.MaxDegree() != b.MaxDegree() || a.AvgDegree() != b.AvgDegree() {
		t.Fatalf("degree stats mismatch: %d/%.3f vs %d/%.3f", a.MaxDegree(), a.AvgDegree(), b.MaxDegree(), b.AvgDegree())
	}
	if a.Labeled() != b.Labeled() || a.NumLabels() != b.NumLabels() {
		t.Fatalf("label stats mismatch")
	}
	for v := 0; v < a.NumVertices(); v++ {
		u := uint32(v)
		if a.Degree(u) != b.Degree(u) {
			t.Fatalf("Degree(%d): %d vs %d", v, a.Degree(u), b.Degree(u))
		}
		if !vset.Equal(a.Neighbors(u), b.Neighbors(u)) {
			t.Fatalf("Neighbors(%d): %v vs %v", v, a.Neighbors(u), b.Neighbors(u))
		}
		if a.Label(u) != b.Label(u) {
			t.Fatalf("Label(%d): %d vs %d", v, a.Label(u), b.Label(u))
		}
		if a.InputID(u) != b.InputID(u) || a.InternalID(u) != b.InternalID(u) {
			t.Fatalf("vertex %d: order %d/%d, rank %d/%d", v, a.InputID(u), b.InputID(u), a.InternalID(u), b.InternalID(u))
		}
	}
	// Spot-check HasEdge on a deterministic probe set including
	// non-edges.
	n := uint32(a.NumVertices())
	for v := uint32(0); v < n; v++ {
		for _, w := range []uint32{0, v / 2, n - 1 - v%n} {
			if a.HasEdge(v, w) != b.HasEdge(v, w) {
				t.Fatalf("HasEdge(%d,%d) differs", v, w)
			}
		}
	}
}

// requireSameHubRows compares hub bitmap rows between two backends
// after forcing the same explicit threshold.
func requireSameHubRows(t *testing.T, a, b *Graph, threshold int) {
	t.Helper()
	ia := a.BuildHubIndex(threshold)
	ib := b.BuildHubIndex(threshold)
	if (ia == nil) != (ib == nil) {
		t.Fatalf("hub index presence differs: %v vs %v", ia != nil, ib != nil)
	}
	if ia == nil {
		return
	}
	if ia.NumHubs() != ib.NumHubs() || ia.CoveredDegree() != ib.CoveredDegree() {
		t.Fatalf("hub stats differ: %d/%d vs %d/%d", ia.NumHubs(), ia.CoveredDegree(), ib.NumHubs(), ib.CoveredDegree())
	}
	for v := 0; v < a.NumVertices(); v++ {
		ra, rb := ia.Row(uint32(v)), ib.Row(uint32(v))
		if (ra == nil) != (rb == nil) {
			t.Fatalf("hub row presence differs at %d", v)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("hub row %d word %d differs", v, i)
			}
		}
	}
}

func TestSlabFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := RMAT(9, 8, 5).WithRandomLabels(3, 9).Rename("rmat-rt")
	path := filepath.Join(dir, "g.slab")
	if err := g.WriteSlabFile(path); err != nil {
		t.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	if !mg.Mapped() {
		t.Log("platform without mmap: heap fallback in use")
	}
	if mg.Name() != "rmat-rt" {
		t.Fatalf("name %q", mg.Name())
	}
	requireSameGraph(t, g, mg)
	requireSameHubRows(t, g, mg, 8)
}

func TestSlabFileUnlabeledAndEmpty(t *testing.T) {
	dir := t.TempDir()
	for name, g := range map[string]*Graph{
		"plain": testGraph(),
		"empty": FromEdges(0, nil),
	} {
		path := filepath.Join(dir, name+".slab")
		if err := g.WriteSlabFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mg, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameGraph(t, g, mg)
		mg.Close()
	}
}

// slabSections holds the byte positions of an unlabeled slab file's
// array sections.
type slabSections struct{ order, rank, offsets, adj int }

// sectionsOf locates the sections of g's slab file.
func sectionsOf(g *Graph) slabSections {
	if g.Labeled() {
		panic("sectionsOf expects an unlabeled graph")
	}
	perm := int(pad8(int64(g.NumVertices()) * 4))
	var s slabSections
	s.order = slabHeaderSize + int(pad8(8+int64(len(g.Name()))))
	s.rank = s.order + perm
	s.offsets = s.rank + perm
	s.adj = s.offsets + (g.NumVertices()+1)*8
	return s
}

// rewriteSlabFile writes g to a slab file, lets edit patch the raw
// bytes at the positions of their sections, and writes the result back
// under a new name.
func rewriteSlabFile(t *testing.T, dir, name string, g *Graph, edit func(data []byte, at slabSections)) string {
	t.Helper()
	path := filepath.Join(dir, name+".slab")
	if err := g.WriteSlabFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edit(data, sectionsOf(g))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMappedErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenMapped(filepath.Join(dir, "missing.slab")); err == nil {
		t.Error("want error for missing file")
	}
	junk := filepath.Join(dir, "junk.slab")
	if err := os.WriteFile(junk, make([]byte, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(junk); err == nil {
		t.Error("want error for bad magic")
	}
	// Truncated: valid header region cut short.
	good := filepath.Join(dir, "good.slab")
	if err := RMAT(8, 4, 1).WriteSlabFile(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.slab")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(trunc); err == nil {
		t.Error("want error for truncated file")
	}

	// One corruption per validation rule, on testGraph's 4 vertices:
	// order [3 0 1 2], rank [1 2 3 0], internal offsets [0 1 3 5 8] and
	// adjacency 0:[3] 1:[2 3] 2:[1 3] 3:[0 1 2].
	g := testGraph()
	le := binary.LittleEndian
	for _, tc := range []struct {
		name, want string
		edit       func(data []byte, at slabSections)
	}{
		{"order-out-of-range", "inverse permutations", func(d []byte, at slabSections) { le.PutUint32(d[at.order:], 4) }},
		{"order-repeats", "inverse permutations", func(d []byte, at slabSections) { le.PutUint32(d[at.order+4:], 3) }},
		{"rank-not-inverse", "inverse permutations", func(d []byte, at slabSections) { le.PutUint32(d[at.rank+3*4:], 1) }},
		{"offsets-decrease", "decrease", func(d []byte, at slabSections) { le.PutUint64(d[at.offsets+2*8:], 0) }},
		{"offsets-short", "offsets span", func(d []byte, at slabSections) { le.PutUint64(d[at.offsets+4*8:], 7) }},
		{"neighbor-out-of-range", "out of range", func(d []byte, at slabSections) { le.PutUint32(d[at.adj+7*4:], 4) }},
		{"not-increasing", "strictly increasing", func(d []byte, at slabSections) { le.PutUint32(d[at.adj+6*4:], 0) }},
		{"self-loop", "self-loop", func(d []byte, at slabSections) { le.PutUint32(d[at.adj+7*4:], 3) }},
		// Offsets [0 2 3 5 8] with 0:[2 3] 1:[3]: valid lists, degrees 2 then 1.
		{"degree-order", "degree order", func(d []byte, at slabSections) {
			le.PutUint64(d[at.offsets+8:], 2)
			le.PutUint32(d[at.adj:], 2)
			le.PutUint32(d[at.adj+4:], 3)
		}},
		{"retired-partitioned", "regenerate", func(d []byte, _ slabSections) { copy(d, "DMSLAB01") }},
		{"retired-unordered", "regenerate", func(d []byte, _ slabSections) { copy(d, "DMSLAB02") }},
	} {
		path := rewriteSlabFile(t, dir, tc.name, g, tc.edit)
		mg, err := OpenMapped(path)
		if err == nil {
			mg.Close()
			t.Errorf("%s: OpenMapped accepted the file", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The untouched file still opens, so each case above failed on its
	// own edit.
	mg, err := OpenMapped(rewriteSlabFile(t, dir, "intact", g, func([]byte, slabSections) {}))
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, g, mg)
	mg.Close()
}

// FuzzSlabBackends writes a random graph to a slab file, checks the
// mmap backend answers like the heap graph, then flips one byte and
// truncates the tail of the file: OpenMapped must either reject the
// damaged file or return a graph that keeps the Graph contract, so that
// every accessor succeeds on every vertex ID the graph hands out.
func FuzzSlabBackends(f *testing.F) {
	f.Add(int64(1), uint32(0), uint8(0), uint32(0))
	f.Add(int64(42), uint32(100), uint8(0x80), uint32(0))
	f.Add(int64(7), uint32(0), uint8(0), uint32(13))
	// Damage the vertex order: one bit of order[0], one of rank[5].
	at := sectionsOf(GNP(60, 0.08, 3))
	f.Add(int64(3), uint32(at.order), uint8(1), uint32(0))
	f.Add(int64(3), uint32(at.rank+5*4), uint8(2), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, pos uint32, flip uint8, cut uint32) {
		g := GNP(60, 0.08, seed)
		if seed%2 == 0 {
			g = g.WithRandomLabels(3, seed)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "f.slab")
		if err := g.WriteSlabFile(path); err != nil {
			t.Fatal(err)
		}
		mg, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, g, mg)
		mg.Close()

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[int(pos)%len(data)] ^= flip
		data = data[:len(data)-int(cut)%len(data)]
		bad := filepath.Join(dir, "bad.slab")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		bg, err := OpenMapped(bad)
		if err != nil {
			return
		}
		defer bg.Close()
		n := uint32(bg.NumVertices())
		for v := uint32(0); v < n; v++ {
			nb := bg.Neighbors(v)
			if len(nb) != bg.Degree(v) {
				t.Fatalf("Degree(%d) = %d, %d neighbors", v, bg.Degree(v), len(nb))
			}
			for i, x := range nb {
				if x >= n || x == v || (i > 0 && x <= nb[i-1]) {
					t.Fatalf("Neighbors(%d) = %v breaks the adjacency contract", v, nb)
				}
				bg.HasEdge(x, v)
			}
			bg.Label(v)
			if x := bg.InputID(v); x >= n || bg.InternalID(x) != v {
				t.Fatalf("vertex %d: InputID %d does not round-trip", v, x)
			}
		}
	})
}
