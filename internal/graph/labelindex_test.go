package graph

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"decomine/internal/vset"
)

// scanLabel is the reference N(v) ∩ {label = l}: a filter over the
// plain adjacency.
func scanLabel(g *Graph, v, l uint32) []uint32 {
	var out []uint32
	for _, x := range g.Neighbors(v) {
		if g.Label(x) == l {
			out = append(out, x)
		}
	}
	return out
}

// probeLabels returns every label g carries plus labels none carries:
// 0, 1, the top of the range, and each carried label's neighbors.
func probeLabels(g *Graph) []uint32 {
	seen := map[uint32]bool{}
	ls := []uint32{0, 1, math.MaxUint32}
	for v := 0; v < g.NumVertices(); v++ {
		l := g.Label(uint32(v))
		if !seen[l] {
			seen[l] = true
			ls = append(ls, l, l-1, l+1)
		}
	}
	return ls
}

// requireLabelSlices checks NeighborsWithLabel and VerticesWithLabel
// against scans for every vertex and probe label, and the index's size
// bound: 2|E| grouped neighbors and at most 2|E| runs.
func requireLabelSlices(t *testing.T, what string, g *Graph) {
	t.Helper()
	labels := probeLabels(g)
	for v := 0; v < g.NumVertices(); v++ {
		for _, l := range labels {
			got, want := g.NeighborsWithLabel(uint32(v), l), scanLabel(g, uint32(v), l)
			if !vset.Equal(got, want) {
				t.Fatalf("%s: NeighborsWithLabel(%d, %d) = %v, want %v", what, v, l, got, want)
			}
		}
	}
	for _, l := range labels {
		var want []uint32
		for v := 0; v < g.NumVertices(); v++ {
			if g.Label(uint32(v)) == l {
				want = append(want, uint32(v))
			}
		}
		if got := g.VerticesWithLabel(l); !vset.Equal(got, want) {
			t.Fatalf("%s: VerticesWithLabel(%d) = %v, want %v", what, l, got, want)
		}
	}
	ix := g.LabelIndex()
	if !g.Labeled() {
		if ix != nil {
			t.Fatalf("%s: unlabeled graph built a label index", what)
		}
		return
	}
	if m2 := 2 * g.NumEdges(); int64(len(ix.adj)) != m2 || int64(len(ix.runs)) > m2 {
		t.Fatalf("%s: index holds %d neighbors and %d runs for 2|E| = %d", what, len(ix.adj), len(ix.runs), m2)
	}
}

// FuzzLabelSlices builds a random edge list, unlabeled or labeled with
// small, sparse or very large label values, and checks every label
// slice on the heap graph, after a slab-file round trip, and on a
// relabelled shallow copy, whose index must not leak into the
// original's.
func FuzzLabelSlices(f *testing.F) {
	f.Add(int64(1), uint8(12), uint16(30), uint8(0))
	f.Add(int64(2), uint8(40), uint16(200), uint8(1))
	f.Add(int64(3), uint8(64), uint16(900), uint8(2))
	f.Add(int64(4), uint8(1), uint16(0), uint8(3))
	f.Add(int64(5), uint8(60), uint16(1500), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n8 uint8, m uint16, kind uint8) {
		n := int(n8)
		if n == 0 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		for i := 0; i < int(m)%4096; i++ {
			b.AddEdge(uint32(r.Intn(n)), uint32(r.Intn(n)))
		}
		if kind%5 != 0 {
			// 1: a few small labels; 2: sparse values; 3: values near the
			// top of the uint32 range; 4: a label per vertex, so dense
			// rows have long run directories.
			pool := make([]uint32, 1+r.Intn(6))
			if kind%5 == 4 {
				pool = make([]uint32, n)
			}
			for i := range pool {
				switch kind % 5 {
				case 1:
					pool[i] = uint32(i)
				case 2:
					pool[i] = uint32(r.Intn(1 << 20))
				case 3:
					pool[i] = math.MaxUint32 - uint32(r.Intn(8))
				case 4:
					pool[i] = uint32(7 * i)
				}
			}
			labels := make([]uint32, n)
			for i := range labels {
				labels[i] = pool[r.Intn(len(pool))]
				if kind%5 == 4 {
					labels[i] = pool[i]
				}
			}
			b.SetLabels(labels)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		requireLabelSlices(t, "heap", g)

		path := filepath.Join(t.TempDir(), "g.slab")
		if err := g.WriteSlabFile(path); err != nil {
			t.Fatal(err)
		}
		mg, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		requireLabelSlices(t, "mapped", mg)
		mg.Close()

		before := g.LabelIndex()
		c := g.WithRandomLabels(1+r.Intn(5), seed)
		requireLabelSlices(t, "relabelled copy", c)
		if ix := c.LabelIndex(); ix == nil || ix == before {
			t.Fatal("relabelled copy shares the original's label index")
		}
		if g.LabelIndex() != before {
			t.Fatal("relabelling replaced the original's label index")
		}
		requireLabelSlices(t, "heap after relabelling", g)
	})
}

// labelSliceSink keeps BenchmarkLabelSlice's lookups from being
// optimized away.
var labelSliceSink int

// BenchmarkLabelSlice times NeighborsWithLabel's lookup over 4096
// random (vertex, label) pairs: 4 labels on a sparse G(n,p) and 42 on
// a denser one.
func BenchmarkLabelSlice(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"labels=4", GNP(6000, 0.002, 1).WithRandomLabels(4, 2)},
		{"labels=42", GNP(1000, 0.032, 1).WithRandomLabels(42, 2)},
	} {
		ix := c.g.LabelIndex()
		r := rand.New(rand.NewSource(3))
		qs := make([][2]uint32, 4096)
		for i := range qs {
			qs[i] = [2]uint32{uint32(r.Intn(c.g.NumVertices())), uint32(r.Intn(c.g.NumLabels()))}
		}
		b.Run(c.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				q := qs[i&4095]
				n += len(ix.Neighbors(q[0], q[1]))
			}
			labelSliceSink = n
		})
	}
}
