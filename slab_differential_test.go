package decomine

import (
	"path/filepath"
	"testing"
)

// TestSlabBackendsPatternCountDifferential is the acceptance gate for
// out-of-core graphs: pattern counts and instruction totals must be
// bit-identical between a heap graph and the mmap-backed slab file
// written from it, with the multi-threaded scheduler engaged.
func TestSlabBackendsPatternCountDifferential(t *testing.T) {
	heap := GenerateRMAT(9, 8, 17)
	path := filepath.Join(t.TempDir(), "diff.slab")
	if err := heap.WriteSlabFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	heapSys := NewSystem(heap, Options{Threads: 4})
	defer heapSys.Close()
	mmapSys := NewSystem(mapped, Options{Threads: 4})
	defer mmapSys.Close()
	for _, pname := range []string{"clique-3", "clique-4", "cycle-5", "house", "star-4"} {
		p, err := PatternByName(pname)
		if err != nil {
			t.Fatal(err)
		}
		want, err := heapSys.CountPattern(p, QueryOpts{})
		if err != nil {
			t.Fatalf("%s on heap: %v", pname, err)
		}
		got, err := mmapSys.CountPattern(p, QueryOpts{})
		if err != nil {
			t.Fatalf("%s on mmap: %v", pname, err)
		}
		if got.Count != want.Count {
			t.Fatalf("%s: mmap counted %d, heap counted %d", pname, got.Count, want.Count)
		}
		if gi, wi := got.Stats.Exec.Instructions, want.Stats.Exec.Instructions; gi != wi {
			t.Fatalf("%s: mmap executed %d instructions, heap %d", pname, gi, wi)
		}
	}
}
