package cost

import (
	"testing"

	"decomine/internal/ast"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

func stats() GraphStats { return GraphStats{N: 10000, AvgDeg: 20, Labels: 1} }

// buildNest builds a depth-k nested loop program over neighbor
// intersections (the canonical clique enumeration shape).
func buildNest(k int) *ast.Program {
	b := ast.NewBuilder(0)
	all := b.All()
	g := b.NewGlobal()
	var cand int
	var loops []int
	cand = all
	var nbrs []int
	for i := 0; i < k; i++ {
		meta := &ast.LoopMeta{Prefix: pattern.Clique(i + 1), PrefixCode: pattern.Clique(i + 1).Canonical(), Constraints: i}
		v := b.BeginLoop(cand, meta)
		loops = append(loops, v)
		n := b.Neighbors(v)
		nbrs = append(nbrs, n)
		if i == 0 {
			cand = n
		} else {
			cand = b.Intersect(cand, n)
		}
	}
	x := b.Size(cand)
	b.GlobalAdd(g, x, 1)
	for range loops {
		b.EndLoop()
	}
	return b.Finish()
}

func TestStatsOf(t *testing.T) {
	g := graph.GNP(100, 0.1, 1)
	st := StatsOf(g)
	if st.N != 100 || st.AvgDeg <= 0 || st.Labels != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if p := st.P(); p <= 0 || p > 1 {
		t.Fatalf("P = %f", p)
	}
	lg := g.WithRandomLabels(5, 2)
	if StatsOf(lg).Labels < 2 {
		t.Fatal("labeled stats wrong")
	}
	if (GraphStats{}).P() != 0 {
		t.Fatal("zero stats P")
	}
}

func TestDeeperNestsCostMore(t *testing.T) {
	// The locality model keeps deeper nests strictly more expensive.
	m := NewLocality(stats(), 0.25)
	c2 := m.Cost(buildNest(2))
	c3 := m.Cost(buildNest(3))
	c4 := m.Cost(buildNest(4))
	if !(c2 < c3 && c3 < c4) {
		t.Errorf("locality: costs not increasing with depth: %g %g %g", c2, c3, c4)
	}
	// The AutoMine model famously does NOT: on sparse stats its
	// geometric intersection estimates make deeper levels look almost
	// free (§6.1's inaccuracy). Assert only positivity, and that the
	// deep-nest estimate stays within a whisker of the shallow one —
	// the documented underestimation.
	am := NewAutoMine(stats())
	a2, a4 := am.Cost(buildNest(2)), am.Cost(buildNest(4))
	if a2 <= 0 || a4 <= 0 {
		t.Fatalf("automine nonpositive costs %g %g", a2, a4)
	}
	if a4 > 2*a2 {
		t.Errorf("automine unexpectedly sensitive to depth: %g vs %g", a4, a2)
	}
}

func TestLocalityExceedsAutoMineOnIntersections(t *testing.T) {
	// On a sparse graph the AutoMine model estimates near-zero
	// intersection sizes, so deep nests look (wrongly) almost free; the
	// locality model keeps them expensive. This is the §6.1 observation.
	st := GraphStats{N: 1e6, AvgDeg: 10, Labels: 1}
	am := NewAutoMine(st).Cost(buildNest(4))
	la := NewLocality(st, 0.25).Cost(buildNest(4))
	if la <= am {
		t.Fatalf("locality %g should exceed automine %g on sparse stats", la, am)
	}
}

func TestApproxMiningUsesProfile(t *testing.T) {
	g := graph.MustDataset("ee")
	prof := sampling.BuildProfile(g, sampling.Options{SampleEdges: 3000, Trials: 3000, Seed: 5})
	m := NewApproxMining(StatsOf(g), prof)
	c3 := m.Cost(buildNest(3))
	c4 := m.Cost(buildNest(4))
	if c3 <= 0 || c4 <= c3 {
		t.Fatalf("approx costs %g %g", c3, c4)
	}
}

func TestModelNames(t *testing.T) {
	g := graph.GNP(50, 0.1, 3)
	prof := sampling.BuildProfile(g, sampling.Options{SampleEdges: 100, Trials: 100, Seed: 1})
	names := map[string]bool{}
	for _, m := range []Model{NewAutoMine(stats()), NewLocality(stats(), 0), NewApproxMining(stats(), prof)} {
		names[m.Name()] = true
	}
	for _, want := range []string{"automine", "locality", "approx-mining"} {
		if !names[want] {
			t.Errorf("missing model name %s", want)
		}
	}
}

func TestCostAccountsForTrimsAndFilters(t *testing.T) {
	build := func(trim bool) *ast.Program {
		b := ast.NewBuilder(0)
		all := b.All()
		g := b.NewGlobal()
		v0 := b.BeginLoop(all, nil)
		n0 := b.Neighbors(v0)
		cand := n0
		if trim {
			cand = b.TrimBelow(n0, v0)
		}
		v1 := b.BeginLoop(cand, nil)
		n1 := b.Neighbors(v1)
		i := b.Intersect(n0, n1)
		x := b.Size(i)
		b.GlobalAdd(g, x, 1)
		b.EndLoop()
		b.EndLoop()
		return b.Finish()
	}
	m := NewLocality(stats(), 0.25)
	if ct, cn := m.Cost(build(true)), m.Cost(build(false)); ct >= cn {
		t.Fatalf("trimmed plan should cost less: %g vs %g", ct, cn)
	}
}

// TestLabelFilterPricing: a label filter of a neighbor register is a
// lookup in the label-grouped adjacency, priced log₂(labels) per
// execution whatever the list's size; a filter of any other set is a
// scan, priced by its operand's size.
func TestLabelFilterPricing(t *testing.T) {
	st := GraphStats{N: 10000, AvgDeg: 20, Labels: 8}
	build := func(filter, overIntersection bool) *ast.Program {
		b := ast.NewBuilder(0)
		all := b.All()
		g := b.NewGlobal()
		v0 := b.BeginLoop(all, nil)
		set := b.Neighbors(v0)
		if overIntersection {
			set = b.Intersect(set, b.Neighbors(v0))
		}
		if filter {
			set = b.FilterLabel(set, 3)
		}
		b.GlobalAdd(g, b.Size(set), 1)
		b.EndLoop()
		return b.Finish()
	}
	m := NewAutoMine(st)
	if got := m.Cost(build(true, false)) - m.Cost(build(false, false)); got != st.N*3 {
		t.Fatalf("filter of N(v) costs %g over the plain plan, want N·log₂(8) = %g", got, st.N*3)
	}
	a := st.AvgDeg * st.AvgDeg / st.N // the estimated intersection size
	if got := m.Cost(build(true, true)) - m.Cost(build(false, true)); got != st.N*a {
		t.Fatalf("filter of an intersection costs %g over the plain plan, want N·|A| = %g", got, st.N*a)
	}
	for _, over := range []bool{false, true} {
		prog := build(true, over)
		if got, want := NewLocality(st, 0.25).Cost(prog), referenceLocalityCost(st, 0.25, prog); got != want {
			t.Fatalf("over intersection %v: model cost %v != reference %v", over, got, want)
		}
	}
}

func TestCostRanksGoodVsBadTriangleOrder(t *testing.T) {
	// A triangle plan that intersects before looping beats one that
	// loops over all vertices at the last level.
	good := buildNest(3)
	bad := func() *ast.Program {
		b := ast.NewBuilder(0)
		all := b.All()
		g := b.NewGlobal()
		v0 := b.BeginLoop(all, nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil)
		_ = v1
		v2 := b.BeginLoop(all, nil) // pattern-oblivious last level
		n2 := b.Neighbors(v2)
		i := b.Intersect(n0, n2)
		x := b.Size(i)
		b.GlobalAdd(g, x, 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		return b.Finish()
	}()
	for _, m := range []Model{NewAutoMine(stats()), NewLocality(stats(), 0.25)} {
		if cg, cb := m.Cost(good), m.Cost(bad); cg >= cb {
			t.Errorf("%s: good %g should beat bad %g", m.Name(), cg, cb)
		}
	}
}
