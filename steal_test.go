package decomine

// Differential and determinism tests for the work-stealing scheduler:
// a 4-worker stealing run must agree with the brute-force oracles on
// every pattern flavor — plain, vertex-induced and group-constrained —
// over both uniform G(n,p) and skewed R-MAT graphs, and its merged
// OpCounts must not depend on the thread count or the steal schedule.

import (
	"testing"
)

func stealSystem(g *Graph, threads int) *System {
	return NewSystem(g, Options{Threads: threads, CostModel: CostLocality})
}

func TestStealDifferentialAcrossGraphShapes(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"gnp", GenerateGNP(120, 0.07, 501).WithRandomLabels(3, 502)},
		{"rmat", GenerateRMAT(8, 7, 503).WithRandomLabels(3, 504)},
	}
	names := []string{"clique-3", "cycle-4", "clique-4", "house"}
	for _, gc := range graphs {
		sys := stealSystem(gc.g, 4)
		for _, name := range names {
			p, err := PatternByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// Group constraint: all pattern vertices share one label.
			cons := []LabelConstraint{{Kind: AllSameLabel, Vertices: allVerts(p)}}
			want := brute(gc.g, p.p, cons)
			got, err := sys.GetPatternCount(p)
			if err != nil {
				t.Fatalf("%s %s: %v", gc.name, name, err)
			}
			if got != want.ei {
				t.Errorf("%s %s: steal VM %d != brute force %d", gc.name, name, got, want.ei)
			}
			got, err = sys.GetPatternCountVertexInduced(p)
			if err != nil {
				t.Fatalf("%s %s induced: %v", gc.name, name, err)
			}
			if got != want.vi {
				t.Errorf("%s %s induced: steal VM %d != brute force %d", gc.name, name, got, want.vi)
			}
			got, err = sys.CountWithConstraints(p, cons)
			if err != nil {
				t.Fatalf("%s %s constrained: %v", gc.name, name, err)
			}
			if got != want.constrained {
				t.Errorf("%s %s constrained: steal VM %d != brute force %d", gc.name, name, got, want.constrained)
			}
		}
		sys.Close()
	}
}

func allVerts(p *Pattern) []int {
	vs := make([]int, p.NumVertices())
	for i := range vs {
		vs[i] = i
	}
	return vs
}

// TestStealOpCountsThreadIndependent runs the same query under 1, 2, 4
// and 7 workers (odd counts shift the steal schedule) and requires
// byte-identical per-opcode totals from the per-run stats every time.
func TestStealOpCountsThreadIndependent(t *testing.T) {
	g := GenerateRMAT(9, 7, 601)
	p, err := PatternByName("house")
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]int64
	var baseCount int64
	for _, threads := range []int{1, 2, 4, 7} {
		sys := stealSystem(g, threads)
		res, err := sys.CountPattern(p, QueryOpts{})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		c, st := res.Count, res.Stats.Exec
		if base == nil {
			base, baseCount = st.PerOp, c
			sys.Close()
			continue
		}
		if c != baseCount {
			t.Fatalf("threads=%d: count %d != %d", threads, c, baseCount)
		}
		if len(st.PerOp) != len(base) {
			t.Fatalf("threads=%d: %d opcodes != %d", threads, len(st.PerOp), len(base))
		}
		for op, n := range base {
			if st.PerOp[op] != n {
				t.Fatalf("threads=%d: op %s executed %d times, want %d", threads, op, st.PerOp[op], n)
			}
		}
		sys.Close()
	}
}

// TestStealDeterministicRepeats re-runs one query many times on a
// shared pool: the count must never vary with the (nondeterministic)
// steal schedule.
func TestStealDeterministicRepeats(t *testing.T) {
	g := GenerateRMAT(8, 8, 701)
	sys := stealSystem(g, 4)
	defer sys.Close()
	p, err := PatternByName("cycle-4")
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.CountPattern(p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := first.Count
	for i := 0; i < 10; i++ {
		got, err := sys.GetPatternCount(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("repeat %d: %d != %d", i, got, want)
		}
	}
	if first.Stats.Exec.Instructions == 0 {
		t.Fatal("no instructions recorded")
	}
}
