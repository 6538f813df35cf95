package core

import (
	"math/rand"
	"reflect"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/decomp"
	"decomine/internal/engine"
	"decomine/internal/graph"
	"decomine/internal/pattern"
)

// cutSymPlans generates spec unrestricted and cut-symmetric, both
// optimized the way Search optimizes candidates. sym is nil when the
// cut's stabilizer is trivial.
func cutSymPlans(t testing.TB, spec DecompSpec) (plain, sym *Plan) {
	t.Helper()
	plain, err := GenerateDecomposed(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.cutSym = true
	sym, err = GenerateDecomposed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sym.CutSym == 0 {
		return plain, nil
	}
	ast.Optimize(plain.Prog)
	ast.Optimize(sym.Prog)
	return plain, sym
}

// runGlobals executes plan and returns its globals.
func runGlobals(t testing.TB, g *graph.Graph, plan *Plan, threads int) []int64 {
	t.Helper()
	res, err := engine.Run(g, plan.Prog, engine.Options{Threads: threads, Code: plan.Lowered()})
	if err != nil {
		t.Fatalf("%s: %v", plan.Desc, err)
	}
	return res.Globals
}

// cutSymCase is one spec's plans: unrestricted and cut-symmetric, and
// the same pair with every quotient of the decomposition externalized
// and (with two or more distinct quotients) only the first.
type cutSymCase struct {
	plain, sym *Plan
	skips      [][2]*Plan
}

// newCutSymCase generates spec's plans; nil when the cut's stabilizer
// is trivial.
func newCutSymCase(t testing.TB, spec DecompSpec) *cutSymCase {
	t.Helper()
	spec.SkipShrinkCodes = nil
	plain, sym := cutSymPlans(t, spec)
	if sym == nil {
		return nil
	}
	c := &cutSymCase{plain: plain, sym: sym}
	var codes []pattern.Code
	all := map[pattern.Code]bool{}
	for _, s := range spec.D.Shrinkages {
		if !all[s.Code] {
			all[s.Code] = true
			codes = append(codes, s.Code)
		}
	}
	skipSets := []map[pattern.Code]bool{all}
	if len(codes) >= 2 {
		skipSets = append(skipSets, map[pattern.Code]bool{codes[0]: true})
	}
	for _, skip := range skipSets {
		spec.SkipShrinkCodes = skip
		p, s := cutSymPlans(t, spec)
		c.skips = append(c.skips, [2]*Plan{p, s})
	}
	return c
}

// check runs the case on g and requires the cut-symmetric plans to
// match the unrestricted ones: equal ExtractCount and SubCounts, the
// skipped quotients resolved from the unrestricted run. It returns the
// count.
func (c *cutSymCase) check(t testing.TB, g *graph.Graph, threads int) int64 {
	t.Helper()
	pg, sg := runGlobals(t, g, c.plain, threads), runGlobals(t, g, c.sym, threads)
	want, err := c.plain.ExtractCount(pg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.sym.ExtractCount(sg, nil); err != nil || got != want {
		t.Fatalf("%s, %s, %d threads: cut-symmetric count %d (%v), unrestricted %d", c.plain.Decomposition.P, c.sym.Desc, threads, got, err, want)
	}
	sub := c.plain.SubCounts(pg)
	if got := c.sym.SubCounts(sg); !reflect.DeepEqual(got, sub) {
		t.Fatalf("%s, %s, %d threads: cut-symmetric subcounts %v, unrestricted %v", c.plain.Decomposition.P, c.sym.Desc, threads, got, sub)
	}
	resolve := func(q pattern.Code) (int64, bool) { v, ok := sub[q]; return v, ok }
	for _, pair := range c.skips {
		for _, plan := range pair {
			globals := runGlobals(t, g, plan, threads)
			if got, err := plan.ExtractCount(globals, resolve); err != nil || got != want {
				t.Fatalf("%s, %s, %d threads: count %d (%v) with quotients skipped, want %d", c.plain.Decomposition.P, plan.Desc, threads, got, err, want)
			}
			if got := plan.SubCounts(globals); !subsetOf(got, sub) {
				t.Fatalf("%s, %s, %d threads: subcounts %v with quotients skipped, unrestricted %v", c.plain.Decomposition.P, plan.Desc, threads, got, sub)
			}
		}
	}
	return want
}

// subsetOf reports whether every entry of a is in b with the same value.
func subsetOf(a, b map[pattern.Code]int64) bool {
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// bruteEmbeddings counts the edge-induced embeddings of pat in g by
// backtracking in a connected vertex order, drawing each vertex from a
// bound neighbor's adjacency.
func bruteEmbeddings(g *graph.Graph, pat *pattern.Pattern) int64 {
	n := pat.NumVertices()
	order := []int{0}
	anchor := make([]int, n) // an earlier pattern neighbor, -1 for the root
	anchor[0] = -1
	placed := uint32(1)
	for len(order) < n {
		for v := 0; v < n; v++ {
			if placed&(1<<uint(v)) != 0 {
				continue
			}
			if a := firstNeighborIn(pat, v, order); a >= 0 {
				anchor[v] = a
				order = append(order, v)
				placed |= 1 << uint(v)
				break
			}
		}
	}
	bound := make([]uint32, n)
	var cnt int64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			cnt++
			return
		}
		v := order[i]
		var cands []uint32
		if i == 0 {
			cands = make([]uint32, g.NumVertices())
			for x := range cands {
				cands[x] = uint32(x)
			}
		} else {
			cands = g.Neighbors(bound[anchor[v]])
		}
	next:
		for _, x := range cands {
			if l := pat.Label(v); l != pattern.NoLabel && g.Label(x) != l {
				continue
			}
			for _, u := range order[:i] {
				if bound[u] == x || pat.HasEdge(u, v) && !g.HasEdge(x, bound[u]) {
					continue next
				}
			}
			bound[v] = x
			rec(i + 1)
		}
	}
	rec(0)
	return cnt / pat.AutomorphismCount()
}

func firstNeighborIn(pat *pattern.Pattern, v int, among []int) int {
	for _, u := range among {
		if pat.HasEdge(u, v) {
			return u
		}
	}
	return -1
}

// alternateLabels labels pattern vertex v with v%2.
func alternateLabels(p *pattern.Pattern) *pattern.Pattern {
	q := p.Clone()
	for v := 0; v < q.NumVertices(); v++ {
		q.SetLabel(v, uint32(v%2))
	}
	return q
}

// TestCutSymmetryDifferential: for every connected 3–6-vertex pattern,
// unlabeled and with alternating labels, every decomposition whose cut
// has a nontrivial stabilizer counts the same cut-symmetric as
// unrestricted (ExtractCount and SubCounts, also with quotients
// externalized). The matrix is two specs (identity cut order; reversed
// cut order with full-depth PLR on the unrestricted side) × a G(n,p)
// and an R-MAT graph × 1 and 2 threads: every cell for ≤ 5 vertices,
// one cell per decomposition in rotation for 6. Every count on the
// G(n,p) graph must also match brute-force enumeration.
func TestCutSymmetryDifferential(t *testing.T) {
	maxK := 6
	if testing.Short() {
		maxK = 5
	}
	graphs := [2][2]*graph.Graph{ // [labeled][gnp, rmat]
		{graph.GNP(30, 0.16, 91), graph.RMAT(5, 4, 92)},
	}
	for i, g := range graphs[0] {
		graphs[1][i] = g.WithRandomLabels(2, 93)
	}
	checked, cells := 0, 0
	for k := 3; k <= maxK; k++ {
		for _, base := range pattern.ConnectedPatterns(k) {
			for li, p := range []*pattern.Pattern{base, alternateLabels(base)} {
				brute := int64(-1)
				for _, cut := range decomp.CuttingSets(p) {
					d, err := decomp.Decompose(p, cut)
					if err != nil {
						t.Fatal(err)
					}
					if len(p.SetStabilizer(d.CutVerts)) == 1 {
						continue
					}
					rev := DefaultOrders(d)
					for i := range rev.CutOrder {
						rev.CutOrder[i] = len(rev.CutOrder) - 1 - i
					}
					rev.PLRDepth = len(rev.CutOrder)
					cases := [2]*cutSymCase{}
					for cell := 0; cell < 8; cell++ {
						if k == 6 && cell != checked%8 {
							continue
						}
						si, gi, threads := cell%2, cell/2%2, 1+cell/4
						if cases[si] == nil {
							cases[si] = newCutSymCase(t, [2]DecompSpec{DefaultOrders(d), rev}[si])
						}
						g := graphs[li][gi]
						n := cases[si].check(t, g, threads)
						if gi == 0 {
							if brute < 0 {
								brute = bruteEmbeddings(g, p)
							}
							if n != brute {
								t.Fatalf("%s cut %v: %d embeddings, brute force %d", p, d.CutVerts, n, brute)
							}
						}
						cells++
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no decomposition with a symmetric cut")
	}
	t.Logf("%d decompositions with a nontrivial cut stabilizer, %d runs of the matrix", checked, cells)
}

// TestCutSymmetryOnlyForUnconstrainedCounts: emission and label
// constraints need every cut tuple, so neither gets restricted.
func TestCutSymmetryOnlyForUnconstrainedCounts(t *testing.T) {
	d, err := decomp.Decompose(pattern.Cycle(4), 1<<0|1<<2)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultOrders(d)
	spec.cutSym = true
	if plan, err := GenerateDecomposed(spec); err != nil || plan.CutSym != 2 {
		t.Fatalf("count plan: CutSym %d (%v), want 2", plan.CutSym, err)
	}
	emit := spec
	emit.Mode = ModeEmit
	cons := spec
	cons.Constraints = []LabelConstraint{{Kind: AllDifferent, Verts: []int{0, 1, 2}}}
	for _, s := range []DecompSpec{emit, cons} {
		if plan, err := GenerateDecomposed(s); err != nil || plan.CutSym != 0 {
			t.Fatalf("mode %d, %d constraints: CutSym %d (%v), want 0", s.Mode, len(s.Constraints), plan.CutSym, err)
		}
	}
}

// FuzzCutSymmetry draws a pattern of 3–6 vertices (edges, labels), a
// cutting set, a cut order, a PLR depth and a graph, and requires the
// cut-symmetric plan to count what the unrestricted one counts.
func FuzzCutSymmetry(f *testing.F) {
	// k = 3 + n%4; edge bits run over the pairs (0,1), (0,2), ..., (k-2,k-1).
	f.Add(uint8(3), uint16(0x7ffe), uint8(0), uint8(0b111100), int64(1))      // K6−e, cut {2,3,4,5}, |H| = 24
	f.Add(uint8(1), uint16(0b111110), uint8(0b0011), uint8(0b1100), int64(2)) // labeled diamond, cut {2,3}
	f.Add(uint8(2), uint16(0b1010110011), uint8(0), uint8(0b00110), int64(3)) // 5 vertices, cut {1,2}
	f.Fuzz(func(t *testing.T, n uint8, edges uint16, labels, cutMask uint8, seed int64) {
		k := 3 + int(n%4)
		p := pattern.New(k)
		bit := 0
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if edges&(1<<uint(bit)) != 0 {
					p.AddEdge(a, b)
				}
				bit++
			}
		}
		if labels != 0 {
			for v := 0; v < k; v++ {
				p.SetLabel(v, uint32(labels>>uint(v)&1))
			}
		}
		cut := uint32(cutMask) & (1<<uint(k) - 1)
		if !p.Connected() || cut == 0 || len(p.ComponentsAvoiding(cut)) < 2 {
			return
		}
		d, err := decomp.Decompose(p, cut)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		spec := DefaultOrders(d)
		spec.CutOrder = r.Perm(len(d.CutVerts))
		spec.PLRDepth = r.Intn(len(d.CutVerts) + 1)
		g := graph.GNP(24+r.Intn(12), 0.15+0.1*r.Float64(), seed)
		if labels != 0 {
			g = g.WithRandomLabels(2, seed)
		}
		if c := newCutSymCase(t, spec); c != nil {
			c.check(t, g, 1+r.Intn(2))
		}
	})
}
