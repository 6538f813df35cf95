package engine

import (
	"sync/atomic"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/graph"
)

// slowProgram builds a deliberately heavy nested loop (all pairs x all
// vertices) so cancellation has something to interrupt.
func slowProgram() *ast.Program {
	b := ast.NewBuilder(0)
	all := b.All()
	g := b.NewGlobal()
	_ = b.BeginLoop(all, nil)
	_ = b.BeginLoop(all, nil)
	_ = b.BeginLoop(all, nil)
	one := b.Const(1)
	b.GlobalAdd(g, one, 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	return b.Finish()
}

func TestCancelPreSet(t *testing.T) {
	g := graph.GNP(400, 0.05, 1)
	var cancel atomic.Bool
	cancel.Store(true) // cancel before starting
	res, err := Run(g, slowProgram(), Options{Threads: 1, Cancel: &cancel})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("pre-set cancel not observed")
	}
	// Only a partial count can have accumulated.
	full := int64(400) * 400 * 400
	if res.Globals[0] >= full {
		t.Fatalf("cancelled run produced full count %d", res.Globals[0])
	}
}

func TestCancelParallel(t *testing.T) {
	g := graph.GNP(300, 0.05, 2)
	var cancel atomic.Bool
	cancel.Store(true)
	res, err := Run(g, slowProgram(), Options{Threads: 4, Cancel: &cancel})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("parallel cancel not observed")
	}
}

func TestNoCancelCompletes(t *testing.T) {
	g := graph.GNP(40, 0.2, 3)
	var cancel atomic.Bool // never set
	res, err := Run(g, slowProgram(), Options{Threads: 2, Cancel: &cancel})
	if err != nil {
		t.Fatal(err)
	}
	if res.Canceled {
		t.Fatal("uncancelled run reported canceled")
	}
	if want := int64(40) * 40 * 40; res.Globals[0] != want {
		t.Fatalf("count %d, want %d", res.Globals[0], want)
	}
}

func TestRunDeterministicAcrossThreadCounts(t *testing.T) {
	g := graph.GNP(150, 0.08, 4)
	prog := buildTriangleProgram()
	var want int64 = -1
	for _, threads := range []int{1, 2, 3, 5, 8} {
		res, err := Run(g, prog, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if want == -1 {
			want = res.Globals[0]
			continue
		}
		if res.Globals[0] != want {
			t.Fatalf("threads=%d: %d != %d", threads, res.Globals[0], want)
		}
	}
}

func TestWorkAccountingSumsToInstructions(t *testing.T) {
	g := graph.GNP(500, 0.02, 5)
	prog := buildTriangleProgram()
	res, err := Run(g, prog, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// WorkPerThread is per-worker executed instructions; the per-worker
	// attribution must sum to the merged OpCounts total.
	var total int64
	for _, w := range res.WorkPerThread {
		total += w
	}
	if total != res.InstructionsExecuted() {
		t.Fatalf("work %d != %d instructions", total, res.InstructionsExecuted())
	}
}
