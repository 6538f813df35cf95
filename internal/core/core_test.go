package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/decomp"
	"decomine/internal/engine"
	"decomine/internal/graph"
	"decomine/internal/pattern"
)

// bruteTuples counts injective mappings of pat into g (edge-induced:
// pattern edges must map to graph edges, non-edges unconstrained).
func bruteTuples(g *graph.Graph, pat *pattern.Pattern, induced bool) int64 {
	n := pat.NumVertices()
	bound := make([]uint32, n)
	var cnt int64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			cnt++
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			x := uint32(v)
			if l := pat.Label(i); l != pattern.NoLabel && g.Label(x) != l {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if bound[j] == x {
					ok = false
					break
				}
				has := g.HasEdge(x, bound[j])
				if pat.HasEdge(i, j) && !has {
					ok = false
					break
				}
				if induced && !pat.HasEdge(i, j) && has {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			bound[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return cnt
}

func runPlan(t *testing.T, g *graph.Graph, plan *Plan, threads int) int64 {
	t.Helper()
	res, err := engine.Run(g, plan.Prog, engine.Options{Threads: threads})
	if err != nil {
		t.Fatalf("%s: %v", plan.Desc, err)
	}
	n, err := plan.ExtractCount(res.Globals, nil)
	if err != nil {
		t.Fatalf("%s: %v", plan.Desc, err)
	}
	return n
}

var testPatterns = []*pattern.Pattern{
	pattern.Chain(3),
	pattern.Clique(3),
	pattern.Cycle(4),
	pattern.TailedTriangle(),
	pattern.Star(4),
	pattern.Chain(4),
	pattern.House(),
	pattern.Cycle(5),
}

func testGraphSmall() *graph.Graph { return graph.GNP(60, 0.12, 77) }

func TestGenerateDirectMatchesBrute(t *testing.T) {
	g := testGraphSmall()
	for _, p := range testPatterns {
		want := bruteTuples(g, p, false) / p.AutomorphismCount()
		order := iota_(p.NumVertices())
		plan, err := GenerateDirect(DirectSpec{Pattern: p, Order: order})
		if err != nil {
			t.Fatal(err)
		}
		if got := runPlan(t, g, plan, 1); got != want {
			t.Errorf("%s direct: got %d, want %d", p, got, want)
		}
		// With symmetry breaking.
		planSB, err := GenerateDirect(DirectSpec{Pattern: p, Order: order, SymmetryBreak: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := runPlan(t, g, planSB, 2); got != want {
			t.Errorf("%s direct+SB: got %d, want %d", p, got, want)
		}
		// With counting optimization.
		planCL, err := GenerateDirect(DirectSpec{Pattern: p, Order: order, SymmetryBreak: true, CountLastLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := runPlan(t, g, planCL, 1); got != want {
			t.Errorf("%s direct+SB+countlast: got %d, want %d", p, got, want)
		}
	}
}

func TestGenerateDirectAllOrders(t *testing.T) {
	g := graph.GNP(40, 0.15, 78)
	p := pattern.TailedTriangle()
	want := bruteTuples(g, p, false) / p.AutomorphismCount()
	perms := permutations(p.NumVertices())
	for _, order := range perms {
		plan, err := GenerateDirect(DirectSpec{Pattern: p, Order: order, SymmetryBreak: true, CountLastLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := runPlan(t, g, plan, 1); got != want {
			t.Errorf("order %v: got %d, want %d", order, got, want)
		}
	}
}

func TestGenerateDirectInduced(t *testing.T) {
	g := testGraphSmall()
	for _, p := range []*pattern.Pattern{pattern.Chain(3), pattern.Cycle(4), pattern.Chain(4), pattern.Star(4)} {
		want := bruteTuples(g, p, true) / p.AutomorphismCount()
		plan, err := GenerateDirect(DirectSpec{Pattern: p, Order: iota_(p.NumVertices()), Induced: true, SymmetryBreak: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := runPlan(t, g, plan, 1); got != want {
			t.Errorf("%s induced: got %d, want %d", p, got, want)
		}
	}
}

func TestGenerateDirectLabeled(t *testing.T) {
	g := graph.GNP(60, 0.12, 79).WithRandomLabels(3, 80)
	p := pattern.Chain(3)
	p.SetLabel(0, 1)
	p.SetLabel(1, 0)
	want := bruteTuples(g, p, false) / p.AutomorphismCount()
	plan, err := GenerateDirect(DirectSpec{Pattern: p, Order: iota_(3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := runPlan(t, g, plan, 1); got != want {
		t.Errorf("labeled chain: got %d, want %d", got, want)
	}
}

func TestGenerateDecomposedMatchesBruteAllCuts(t *testing.T) {
	g := testGraphSmall()
	for _, p := range testPatterns {
		want := bruteTuples(g, p, false) / p.AutomorphismCount()
		cuts := decomp.CuttingSets(p)
		if len(cuts) == 0 {
			continue // cliques
		}
		for _, cut := range cuts {
			d, err := decomp.Decompose(p, cut)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := GenerateDecomposed(DefaultOrders(d))
			if err != nil {
				t.Fatal(err)
			}
			if got := runPlan(t, g, plan, 1); got != want {
				t.Errorf("%s cut=%b: got %d, want %d", p, cut, got, want)
			}
		}
	}
}

func TestGenerateDecomposedParallelAndOptimized(t *testing.T) {
	g := testGraphSmall()
	p := pattern.House()
	want := bruteTuples(g, p, false) / p.AutomorphismCount()
	cuts := decomp.CuttingSets(p)
	d, err := decomp.Decompose(p, cuts[0])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := GenerateDecomposed(DefaultOrders(d))
	if err != nil {
		t.Fatal(err)
	}
	if got := runPlan(t, g, plan, 4); got != want {
		t.Errorf("parallel: got %d, want %d", got, want)
	}
	ast.Optimize(plan.Prog)
	if got := runPlan(t, g, plan, 4); got != want {
		t.Errorf("optimized: got %d, want %d", got, want)
	}
}

func TestGenerateDecomposedPLR(t *testing.T) {
	g := testGraphSmall()
	// fig6's cutting set {A,B,D} induces a triangle: maximal symmetry,
	// the paper's own PLR example shape.
	p := pattern.Fig6Pattern()
	want := bruteTuples(g, p, false) / p.AutomorphismCount()
	d, err := decomp.Decompose(p, 1<<0|1<<1|1<<3)
	if err != nil {
		t.Fatal(err)
	}
	for depth := 0; depth <= 3; depth++ {
		spec := DefaultOrders(d)
		spec.PLRDepth = depth
		plan, err := GenerateDecomposed(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := runPlan(t, g, plan, 1); got != want {
			t.Errorf("PLR depth %d: got %d, want %d", depth, got, want)
		}
		ast.Optimize(plan.Prog)
		if got := runPlan(t, g, plan, 2); got != want {
			t.Errorf("PLR depth %d optimized: got %d, want %d", depth, got, want)
		}
	}
}

func TestGenerateDecomposedCutOrders(t *testing.T) {
	g := graph.GNP(40, 0.15, 81)
	p := pattern.Fig6Pattern()
	want := bruteTuples(g, p, false) / p.AutomorphismCount()
	d, err := decomp.Decompose(p, 1<<0|1<<1|1<<3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cutOrder := range permutations(3) {
		spec := DefaultOrders(d)
		spec.CutOrder = cutOrder
		plan, err := GenerateDecomposed(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := runPlan(t, g, plan, 1); got != want {
			t.Errorf("cutOrder %v: got %d, want %d", cutOrder, got, want)
		}
	}
}

// TestEmitModePartialEmbeddings verifies Algorithm 1's emission: for each
// subpattern, the per-pe counts must sum to inj(p), and each emitted pe
// must be a genuine subpattern embedding (completeness is checked by
// comparing against brute-force enumerations of the subpattern).
func TestEmitModePartialEmbeddings(t *testing.T) {
	g := graph.GNP(35, 0.18, 82)
	for _, p := range []*pattern.Pattern{pattern.Cycle(4), pattern.House(), pattern.Fig6Pattern()} {
		cuts := decomp.CuttingSets(p)
		d, err := decomp.Decompose(p, cuts[0])
		if err != nil {
			t.Fatal(err)
		}
		spec := DefaultOrders(d)
		spec.Mode = ModeEmit
		plan, err := GenerateDecomposed(spec)
		if err != nil {
			t.Fatal(err)
		}
		injP := bruteTuples(g, p, false)
		sums := make([]int64, d.K())
		type emission struct {
			sub int
			key string
		}
		seen := map[emission]int64{}
		res, err := engine.Run(g, plan.Prog, engine.Options{
			Threads: 1,
			NewConsumer: func(w int) engine.Consumer {
				return engine.ConsumerFunc(func(sub int, verts []uint32, count int64) bool {
					if count <= 0 {
						t.Errorf("non-positive emitted count %d", count)
					}
					// Verify pe matches the subpattern.
					sp := d.Subpatterns[sub].Pat
					for a := 0; a < sp.NumVertices(); a++ {
						for bz := a + 1; bz < sp.NumVertices(); bz++ {
							if sp.HasEdge(a, bz) && !g.HasEdge(verts[a], verts[bz]) {
								t.Fatalf("emitted pe %v not an embedding of %s", verts, sp)
							}
						}
					}
					sums[sub] += count
					key := ""
					for _, v := range verts {
						key += string(rune(v)) + ","
					}
					seen[emission{sub, key}] += count
					return true
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := plan.ExtractCount(res.Globals, nil); err != nil || got != injP/p.AutomorphismCount() {
			t.Errorf("%s emit-mode count: got %d (%v), want %d", p, got, err, injP/p.AutomorphismCount())
		}
		for i, s := range sums {
			if s != injP {
				t.Errorf("%s subpattern %d: Σcount = %d, want inj(p) = %d", p, i, s, injP)
			}
		}
		// No pe emitted twice (per e_C they are distinct; across e_C the
		// cut vertices differ, and the key includes them).
		for e, c := range seen {
			_ = e
			if c <= 0 {
				t.Errorf("aggregated count %d", c)
			}
		}
	}
}

// bruteConstrainedTuples counts injective mappings satisfying all label
// constraints.
func bruteConstrainedTuples(g *graph.Graph, pat *pattern.Pattern, cons []LabelConstraint) int64 {
	n := pat.NumVertices()
	bound := make([]uint32, n)
	var cnt int64
	satisfies := func() bool {
		for _, c := range cons {
			for i := 0; i < len(c.Verts); i++ {
				for j := i + 1; j < len(c.Verts); j++ {
					la := g.Label(bound[c.Verts[i]])
					lb := g.Label(bound[c.Verts[j]])
					if c.Kind == AllSame && la != lb {
						return false
					}
					if c.Kind == AllDifferent && la == lb {
						return false
					}
				}
			}
		}
		return true
	}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if satisfies() {
				cnt++
			}
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			x := uint32(v)
			ok := true
			for j := 0; j < i; j++ {
				if bound[j] == x {
					ok = false
					break
				}
				if pat.HasEdge(i, j) && !g.HasEdge(x, bound[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			bound[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return cnt
}

func TestLabelConstraintsDirectAndDecomposed(t *testing.T) {
	g := graph.GNP(40, 0.18, 83).WithRandomLabels(3, 84)
	// The paper's §8.6 query shape on the fig6 pattern: A,B,C all
	// different; B,D,E all same.
	p := pattern.Fig6Pattern()
	cons := []LabelConstraint{
		{Kind: AllDifferent, Verts: []int{0, 1, 2}},
		{Kind: AllSame, Verts: []int{1, 3, 4}},
	}
	wantTuples := bruteConstrainedTuples(g, p, cons)
	div := ConstraintAutomorphismCount(p, cons)
	want := wantTuples / div

	direct, err := GenerateDirect(DirectSpec{Pattern: p, Order: iota_(5), Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	if got := runPlan(t, g, direct, 1); got != want {
		t.Errorf("direct constrained: got %d, want %d", got, want)
	}

	// Decomposition with cut {A,B,D}: constraint 1 fits in cut+{C},
	// constraint 2 in cut+{E}.
	d, err := decomp.Decompose(p, 1<<0|1<<1|1<<3)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultOrders(d)
	spec.Constraints = cons
	dec, err := GenerateDecomposed(spec)
	if err != nil {
		t.Fatal(err)
	}
	dec.Divisor = div
	if got := runPlan(t, g, dec, 2); got != want {
		t.Errorf("decomposed constrained: got %d, want %d", got, want)
	}
	ast.Optimize(dec.Prog)
	if got := runPlan(t, g, dec, 1); got != want {
		t.Errorf("decomposed constrained optimized: got %d, want %d", got, want)
	}
}

func TestConstraintsSpanningComponentsRejected(t *testing.T) {
	// Constraint {C,E} spans both components of fig6's {A,B,D} cut.
	p := pattern.Fig6Pattern()
	d, err := decomp.Decompose(p, 1<<0|1<<1|1<<3)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultOrders(d)
	spec.Constraints = []LabelConstraint{{Kind: AllSame, Verts: []int{2, 4}}}
	if _, err := GenerateDecomposed(spec); err == nil {
		t.Fatal("want rejection for component-spanning constraint")
	}
}

func TestConstraintAutomorphismCount(t *testing.T) {
	// Unconstrained K3 has 6 automorphisms; pinning one vertex into a
	// constraint group breaks most of them.
	p := pattern.Clique(3)
	if got := ConstraintAutomorphismCount(p, nil); got != 6 {
		t.Fatalf("no constraints: %d", got)
	}
	cons := []LabelConstraint{{Kind: AllSame, Verts: []int{0, 1}}}
	// σ must map {0,1} onto {0,1}: 2 (swap) x 1 = 2 automorphisms... plus
	// identity on vertex 2: total 2.
	if got := ConstraintAutomorphismCount(p, cons); got != 2 {
		t.Fatalf("constrained K3: %d", got)
	}
}

func TestGeneratePinnedEnumeratesExtensions(t *testing.T) {
	g := graph.GNP(40, 0.15, 98)
	p := pattern.Clique(3)
	// Pin an edge; the pinned plan must count common neighbors.
	var u, v uint32
	found := false
	for x := 0; x < g.NumVertices() && !found; x++ {
		if nb := g.Neighbors(uint32(x)); len(nb) > 0 {
			u, v = uint32(x), nb[0]
			found = true
		}
	}
	if !found {
		t.Skip("no edges")
	}
	plan, err := GeneratePinned(p, []int{0, 1}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	ast.Optimize(plan.Prog)
	got := int64(0)
	_, err = engine.Run(g, plan.Prog, engine.Options{
		Threads: 1,
		Pins:    []uint32{u, v},
		NewConsumer: func(worker int) engine.Consumer {
			return engine.ConsumerFunc(func(sub int, verts []uint32, count int64) bool {
				got++
				return true
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Count common neighbors directly.
	var want int64
	for x := 0; x < g.NumVertices(); x++ {
		w := uint32(x)
		if w != u && w != v && g.HasEdge(u, w) && g.HasEdge(v, w) {
			want++
		}
	}
	if got != want {
		t.Fatalf("pinned extensions %d, want %d", got, want)
	}
}

func TestGeneratePinnedErrors(t *testing.T) {
	p := pattern.Clique(3)
	if _, err := GeneratePinned(p, []int{0}, []int{1}); err == nil {
		t.Fatal("incomplete pin split accepted")
	}
	if _, err := GeneratePinned(p, []int{0, 0}, []int{1}); err == nil {
		t.Fatal("duplicate pin accepted")
	}
}

// TestExtractCountOverflow: the scaling by |H|, the externalized
// subtraction and its copies·Aut product fail with ErrCountOverflow
// instead of wrapping, and totals that just fit are exact.
func TestExtractCountOverflow(t *testing.T) {
	q := pattern.Cycle(4)
	code := q.Canonical()
	copies := func(n int64) func(pattern.Code) (int64, bool) {
		return func(pattern.Code) (int64, bool) { return n, true }
	}
	ext := []ExternalNeed{{Pat: q, Code: code, Aut: 8}}
	for _, c := range []struct {
		name    string
		plan    *Plan
		raw     int64
		resolve func(pattern.Code) (int64, bool)
		want    int64 // -1: overflow
	}{
		{"raw·|H| fits", &Plan{Divisor: 2, CutSym: 2}, math.MaxInt64 / 2, nil, math.MaxInt64 / 2},
		{"raw·|H| overflows", &Plan{Divisor: 1, CutSym: 2}, math.MaxInt64/2 + 1, nil, -1},
		{"raw·|H| overflows negative", &Plan{Divisor: 1, CutSym: 3}, math.MinInt64 / 2, nil, -1},
		{"copies·Aut overflows", &Plan{Divisor: 1, External: ext}, 0, copies(math.MaxInt64/8 + 1), -1},
		{"subtraction overflows", &Plan{Divisor: 1, External: ext}, math.MinInt64 + 7, copies(1), -1},
		{"subtraction fits", &Plan{Divisor: 1, External: ext}, math.MinInt64 + 8, copies(1), math.MinInt64},
		{"subtraction of a negative overflows", &Plan{Divisor: 1, External: ext}, math.MaxInt64, copies(-1), -1},
	} {
		got, err := c.plan.ExtractCount([]int64{c.raw}, c.resolve)
		switch {
		case c.want == -1 && !errors.Is(err, ErrCountOverflow):
			t.Errorf("%s: got %d, %v; want ErrCountOverflow", c.name, got, err)
		case c.want != -1 && (err != nil || got != c.want):
			t.Errorf("%s: got %d, %v; want %d", c.name, got, err, c.want)
		}
	}
}

// TestSubCountsOverflow: a code whose accumulator sum or |H| scaling
// overflows is left out of SubCounts; the other codes are exact.
func TestSubCountsOverflow(t *testing.T) {
	a, b := pattern.Cycle(4), pattern.Clique(3)
	plan := &Plan{CutSym: 2, Shrink: []ShrinkCount{
		{Global: 0, Pat: a, Code: a.Canonical(), Aut: 8},
		{Global: 1, Pat: a, Code: a.Canonical(), Aut: 8},
		{Global: 2, Pat: b, Code: b.Canonical(), Aut: 6},
	}}
	for _, c := range []struct {
		name    string
		globals []int64
		want    map[pattern.Code]int64
	}{
		{"sum overflows", []int64{math.MaxInt64 - 7, 16, 6}, map[pattern.Code]int64{b.Canonical(): 2}},
		{"sum·|H| overflows", []int64{math.MaxInt64/4 + 4, math.MaxInt64/4 + 4, 6}, map[pattern.Code]int64{b.Canonical(): 2}},
		{"near the limit", []int64{math.MaxInt64/4 - 7, 8, math.MaxInt64 / 6 * 3}, map[pattern.Code]int64{
			a.Canonical(): (math.MaxInt64/4 + 1) / 8, b.Canonical(): math.MaxInt64 / 6}},
	} {
		if got := plan.SubCounts(c.globals); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: SubCounts %v, want %v", c.name, got, c.want)
		}
	}
}
