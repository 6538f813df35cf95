package graph

import (
	"path/filepath"
	"testing"
)

func TestHubIndexRows(t *testing.T) {
	g := RMAT(9, 8, 7)
	ix := g.BuildHubIndex(32)
	if ix == nil {
		t.Fatal("expected hubs in a scale-9 R-MAT at threshold 32")
	}
	if ix.Threshold() != 32 {
		t.Fatalf("Threshold() = %d, want 32", ix.Threshold())
	}
	if ix.Words() != (g.NumVertices()+63)/64 {
		t.Fatalf("Words() = %d, want %d", ix.Words(), (g.NumVertices()+63)/64)
	}
	hubs := 0
	var covered int64
	for v := 0; v < g.NumVertices(); v++ {
		row := ix.Row(uint32(v))
		if g.Degree(uint32(v)) >= 32 {
			if row == nil {
				t.Fatalf("vertex %d with degree %d has no row", v, g.Degree(uint32(v)))
			}
			hubs++
			covered += int64(g.Degree(uint32(v)))
			// The row must encode exactly the adjacency list.
			bits := 0
			for _, w := range row {
				for ; w != 0; w &= w - 1 {
					bits++
				}
			}
			if bits != g.Degree(uint32(v)) {
				t.Fatalf("vertex %d row has %d bits, degree %d", v, bits, g.Degree(uint32(v)))
			}
			for _, u := range g.Neighbors(uint32(v)) {
				if row[u>>6]&(1<<(u&63)) == 0 {
					t.Fatalf("vertex %d row missing neighbor %d", v, u)
				}
			}
		} else if row != nil {
			t.Fatalf("vertex %d with degree %d unexpectedly has a row", v, g.Degree(uint32(v)))
		}
	}
	if hubs == 0 {
		t.Fatal("no hubs found")
	}
	if ix.NumHubs() != hubs {
		t.Fatalf("NumHubs() = %d, want %d", ix.NumHubs(), hubs)
	}
	if ix.CoveredDegree() != covered {
		t.Fatalf("CoveredDegree() = %d, want %d", ix.CoveredDegree(), covered)
	}
	if ix.MemBytes() <= 0 {
		t.Fatal("MemBytes() must be positive")
	}
}

// TestHubsAreIDSuffix checks the layout Row relies on: with IDs in
// degree order, the vertices at or above the threshold are exactly the
// last NumHubs IDs, on a heap R-MAT and on its mapped slab file.
func TestHubsAreIDSuffix(t *testing.T) {
	g := RMAT(10, 8, 11)
	path := filepath.Join(t.TempDir(), "g.slab")
	if err := g.WriteSlabFile(path); err != nil {
		t.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	for name, gr := range map[string]*Graph{"heap": g, "mapped": mg} {
		for _, threshold := range []int{16, 48, g.DefaultHubThreshold()} {
			ix := gr.BuildHubIndex(threshold)
			if ix == nil {
				t.Fatalf("%s, threshold %d: no hubs", name, threshold)
			}
			n := gr.NumVertices()
			first := n - ix.NumHubs()
			for v := 0; v < n; v++ {
				hub := gr.Degree(uint32(v)) >= threshold
				if hub != (v >= first) || hub != (ix.Row(uint32(v)) != nil) {
					t.Fatalf("%s, threshold %d: vertex %d (degree %d) hub %v, row %v, suffix from %d",
						name, threshold, v, gr.Degree(uint32(v)), hub, ix.Row(uint32(v)) != nil, first)
				}
			}
			if want := int64(ix.NumHubs()*ix.Words()) * 8; ix.MemBytes() != want {
				t.Fatalf("%s, threshold %d: MemBytes %d, want %d", name, threshold, ix.MemBytes(), want)
			}
		}
	}
}

func TestHubIndexAbsentOnUniformGraphs(t *testing.T) {
	g := GNP(200, 0.05, 1)
	if ix := g.HubIndex(); ix != nil {
		t.Fatalf("uniform G(n,p) should not auto-build a hub index, got %d hubs", ix.NumHubs())
	}
	if ix := g.BuildHubIndex(g.NumVertices() + 1); ix != nil {
		t.Fatal("threshold above max degree must yield a nil index")
	}
	if g.HubIndex() != nil {
		t.Fatal("nil rebuild must clear the stored index")
	}
}

func TestHubIndexAutoBuildAtDefaultThreshold(t *testing.T) {
	// A star graph: the center's degree is n-1 >= the default threshold,
	// so Build constructs the index automatically.
	n := 600
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, uint32(v))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := g.HubIndex()
	if ix == nil {
		t.Fatal("star graph should auto-build a hub index")
	}
	// The center has the highest degree, so it is the last internal ID.
	if c := g.InternalID(0); c != uint32(n-1) || ix.NumHubs() != 1 || ix.Row(c) == nil {
		t.Fatalf("expected exactly the center (internal %d) as hub, got %d hubs", c, ix.NumHubs())
	}
}

func TestDegreeCaches(t *testing.T) {
	g := RMAT(8, 6, 3)
	maxDeg := 0
	var sum int64
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(uint32(v))
		sum += int64(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	if g.MaxDegree() != maxDeg {
		t.Fatalf("MaxDegree() = %d, want %d", g.MaxDegree(), maxDeg)
	}
	want := float64(sum) / float64(g.NumVertices())
	if g.AvgDegree() != want {
		t.Fatalf("AvgDegree() = %g, want %g", g.AvgDegree(), want)
	}
}

func TestShallowCopiesShareHubIndex(t *testing.T) {
	g := RMAT(9, 8, 7)
	ix := g.BuildHubIndex(32)
	labeled := g.WithRandomLabels(3, 1)
	renamed := g.Rename("other")
	if labeled.HubIndex() != ix || renamed.HubIndex() != ix {
		t.Fatal("shallow copies must share the hub index")
	}
	if labeled.MaxDegree() != g.MaxDegree() || labeled.AvgDegree() != g.AvgDegree() {
		t.Fatal("shallow copies must share the degree caches")
	}
	// A rebuild through any copy is visible to all of them.
	ix2 := labeled.BuildHubIndex(64)
	if g.HubIndex() != ix2 || renamed.HubIndex() != ix2 {
		t.Fatal("rebuild must be visible through every shallow copy")
	}
}
