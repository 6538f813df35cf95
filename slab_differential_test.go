package decomine

import (
	"path/filepath"
	"testing"
)

// TestSlabBackendsPatternCountDifferential is the acceptance gate for
// the partitioned substrate: pattern counts must be bit-identical
// across the flat (single-slab), slab-heap, and slab-mmap backends,
// with the multi-threaded scheduler (and its slab-affinity stealing)
// engaged.
func TestSlabBackendsPatternCountDifferential(t *testing.T) {
	base := GenerateRMAT(9, 8, 17)
	slabbed := base.Reslab(8)
	if slabbed.NumSlabs() < 2 {
		t.Fatalf("want a multi-slab graph, got %d slabs", slabbed.NumSlabs())
	}
	path := filepath.Join(t.TempDir(), "diff.slab")
	if err := slabbed.WriteSlabFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	backends := []struct {
		name string
		g    *Graph
	}{
		{"flat", base.Reslab(1)},
		{"slab-heap", slabbed},
		{"slab-mmap", mapped},
	}
	patterns := []string{"clique-3", "clique-4", "cycle-5", "house", "star-4"}
	for _, pname := range patterns {
		p, err := PatternByName(pname)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for i, be := range backends {
			sys := NewSystem(be.g, Options{Threads: 4})
			got, err := sys.GetPatternCount(p)
			if err != nil {
				t.Fatalf("%s on %s: %v", pname, be.name, err)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: %s counted %d, flat counted %d", pname, be.name, got, want)
			}
			sys.Close()
		}
	}
}

// TestSlabAffinityStatsSurface checks that the public ExecStats carries
// the slab-affinity counters on a partitioned graph (values are
// schedule-dependent, so only invariants are asserted).
func TestSlabAffinityStatsSurface(t *testing.T) {
	g := GenerateRMAT(10, 8, 23).Reslab(8)
	sys := NewSystem(g, Options{Threads: 4})
	defer sys.Close()
	p, err := PatternByName("clique-3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.CountPattern(p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Exec
	if st.SlabHits < 0 || st.SlabMisses < 0 {
		t.Fatalf("negative slab counters: %d/%d", st.SlabHits, st.SlabMisses)
	}
	if st.SlabHits+st.SlabMisses > st.Steals {
		t.Fatalf("scored %d affinity outcomes but only %d deque steals", st.SlabHits+st.SlabMisses, st.Steals)
	}
}
