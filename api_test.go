package decomine

import (
	"strings"
	"testing"

	"decomine/internal/baseline"
	"decomine/internal/pattern"
)

func testSystem(t *testing.T, g *Graph) *System {
	t.Helper()
	return NewSystem(g, Options{
		Threads:            2,
		ProfileSampleEdges: 2000,
		ProfileTrials:      2000,
	})
}

func TestGetPatternCountAgainstOblivious(t *testing.T) {
	g := GenerateGNP(80, 0.1, 111)
	sys := testSystem(t, g)
	for _, name := range []string{"chain-3", "clique-3", "cycle-4", "chain-4", "tailed-triangle", "house", "cycle-5"} {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.GetPatternCount(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := baseline.ObliviousEdgeInducedCount(g.g, p.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: DecoMine %d, oblivious %d", name, got, want)
		}
	}
}

func TestGetPatternCountVertexInduced(t *testing.T) {
	g := GenerateGNP(60, 0.12, 112)
	sys := testSystem(t, g)
	for _, name := range []string{"chain-3", "cycle-4", "chain-4", "star-4", "clique-4"} {
		p, _ := PatternByName(name)
		got, err := sys.GetPatternCountVertexInduced(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := baseline.ObliviousPatternCount(g.g, p.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s vertex-induced: DecoMine %d, oblivious %d", name, got, want)
		}
	}
}

func TestMotifCounts(t *testing.T) {
	g := GenerateGNP(60, 0.12, 113)
	sys := testSystem(t, g)
	for _, k := range []int{3, 4} {
		counts, err := sys.MotifCounts(k)
		if err != nil {
			t.Fatal(err)
		}
		census := baseline.ObliviousMotifCensus(g.g, k)
		for _, mc := range counts {
			want := census[mc.Pattern.p.Canonical()]
			if mc.Count != want {
				t.Errorf("k=%d %s: DecoMine %d, census %d", k, mc.Pattern, mc.Count, want)
			}
		}
	}
	if _, err := sys.MotifCounts(9); err == nil {
		t.Error("k=9 should error")
	}
}

func TestCycleAndPseudoCliqueCounts(t *testing.T) {
	g := GenerateGNP(50, 0.15, 114)
	sys := testSystem(t, g)
	c5, err := sys.CycleCount(5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.ObliviousEdgeInducedCount(g.g, pattern.Cycle(5))
	if err != nil {
		t.Fatal(err)
	}
	if c5 != want {
		t.Errorf("5-cycle: %d vs %d", c5, want)
	}

	pc, err := sys.PseudoCliqueCount(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	census := baseline.ObliviousMotifCensus(g.g, 4)
	diamond := pattern.MustParse("0-1,0-2,0-3,1-2,1-3")
	wantPC := census[pattern.Clique(4).Canonical()] + census[diamond.Canonical()]
	if pc != wantPC {
		t.Errorf("4-pseudo-clique: %d vs %d", pc, wantPC)
	}
}

func TestProcessPartialEmbeddingsProperties(t *testing.T) {
	g := GenerateGNP(40, 0.15, 115)
	sys := testSystem(t, g)
	p, _ := PatternByName("house")
	inj, err := sys.GetPatternCount(p)
	if err != nil {
		t.Fatal(err)
	}
	injTuples := inj * p.p.AutomorphismCount()

	type perWorker struct {
		sums    map[int]int64
		domains map[int]map[uint32]bool
	}
	var states []*perWorker
	err = sys.ProcessPartialEmbeddings(p, func(worker int) UDF {
		st := &perWorker{sums: map[int]int64{}, domains: map[int]map[uint32]bool{}}
		states = append(states, st)
		return func(pe *PartialEmbedding, count int64) {
			if count <= 0 {
				t.Errorf("count %d", count)
			}
			st.sums[pe.SubpatternIndex] += count
			for i, v := range pe.Vertices {
				w := pe.WholeVertex[i]
				if st.domains[w] == nil {
					st.domains[w] = map[uint32]bool{}
				}
				st.domains[w][v] = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sums := map[int]int64{}
	domains := map[int]map[uint32]bool{}
	for _, st := range states {
		for k, v := range st.sums {
			sums[k] += v
		}
		for w, d := range st.domains {
			if domains[w] == nil {
				domains[w] = map[uint32]bool{}
			}
			for v := range d {
				domains[w][v] = true
			}
		}
	}
	// Completeness: per subpattern, total expansion count = inj(p).
	for sub, s := range sums {
		if s != injTuples {
			t.Errorf("subpattern %d: Σcount = %d, want %d", sub, s, injTuples)
		}
	}
	// Coverage: every whole-pattern vertex has a domain.
	for v := 0; v < p.NumVertices(); v++ {
		if len(domains[v]) == 0 {
			t.Errorf("vertex %d has no domain (coverage violated)", v)
		}
	}
}

func TestMaterialize(t *testing.T) {
	g := GenerateGNP(40, 0.15, 116)
	sys := testSystem(t, g)
	p, _ := PatternByName("cycle-4")
	var first *PartialEmbedding
	var firstCount int64
	err := sys.ProcessPartialEmbeddings(p, func(worker int) UDF {
		return func(pe *PartialEmbedding, count int64) {
			if first == nil {
				cp := *pe
				cp.Vertices = append([]uint32(nil), pe.Vertices...)
				first = &cp
				firstCount = count
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Skip("no embeddings in random graph")
	}
	embs, err := sys.Materialize(p, first, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(embs) == 0 {
		t.Fatal("materialized nothing despite positive count")
	}
	if int64(len(embs)) > firstCount && len(embs) < 5 {
		t.Errorf("materialized %d embeddings, pe count %d", len(embs), firstCount)
	}
	for _, emb := range embs {
		// Verify it is a genuine whole-pattern embedding.
		for a := 0; a < p.NumVertices(); a++ {
			for b := a + 1; b < p.NumVertices(); b++ {
				if p.HasEdge(a, b) && !g.HasEdge(emb[a], emb[b]) {
					t.Fatalf("materialized %v misses edge (%d,%d)", emb, a, b)
				}
			}
		}
		// And extends the partial embedding.
		for i, w := range first.WholeVertex {
			if emb[w] != first.Vertices[i] {
				t.Fatalf("materialized %v does not extend pe %v", emb, first.Vertices)
			}
		}
	}
}

func TestCountWithConstraints(t *testing.T) {
	g := GenerateGNP(40, 0.18, 117).WithRandomLabels(3, 118)
	sys := testSystem(t, g)
	p, _ := PatternByName("fig6")
	cons := []LabelConstraint{
		{Kind: AllDifferentLabels, Vertices: []int{0, 1, 2}},
		{Kind: AllSameLabel, Vertices: []int{1, 3, 4}},
	}
	got, err := sys.CountWithConstraints(p, cons)
	if err != nil {
		t.Fatal(err)
	}
	if want := brute(g, p.p, cons).constrained; got != want {
		t.Errorf("constrained count: got %d, brute force %d", got, want)
	}
}

func TestExplain(t *testing.T) {
	g := GenerateGNP(50, 0.12, 119)
	sys := testSystem(t, g)
	p, _ := PatternByName("house")
	exp, err := sys.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"chosen:", "estimated cost", "for v0"} {
		if !strings.Contains(exp, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, exp)
		}
	}
}

func TestFSMOnSmallLabeledGraph(t *testing.T) {
	// Hand-built labeled graph: two triangles sharing structure.
	labels := []uint32{0, 0, 1, 0, 0, 1}
	g, err := NewLabeledGraph(6, [][2]uint32{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	}, labels)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, g)
	res, err := sys.FSM(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no frequent patterns")
	}
	// Single edge (0,0) appears twice (0-1 and 3-4): MNI support 2... the
	// edge 0-1 has labels (0,0); 3-4 (0,0); domains {0,1,3,4} both sides
	// -> support 4. Edge (0,1): 1-2,0-2,4-5,3-5,2-3(1,0): domain of the
	// 0-side {0,1,3,4,3...} big. Verify supports are sane and patterns
	// frequent.
	for _, fp := range res {
		if fp.Support < 2 {
			t.Errorf("%s support %d below threshold", fp.Pattern, fp.Support)
		}
	}
	// Raising the threshold shrinks (or keeps) the result set.
	res2, err := sys.FSM(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) > len(res) {
		t.Errorf("monotonicity violated: τ=4 gave %d ≥ τ=2's %d", len(res2), len(res))
	}
	// Unlabeled graph errors.
	g2 := GenerateGNP(10, 0.3, 1)
	if _, err := NewSystem(g2, Options{}).FSM(1, 2); err == nil {
		t.Error("FSM on unlabeled graph should error")
	}
}

// FSM cross-check against a brute-force MNI computation on a random
// labeled graph.
func TestFSMMatchesBruteForce(t *testing.T) {
	g := GenerateGNP(25, 0.25, 120).WithRandomLabels(2, 121)
	sys := testSystem(t, g)
	const tau = 3
	res, err := sys.FSM(tau, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, fp := range res {
		got[string(fp.Pattern.p.Canonical())] = fp.Support
	}
	// Brute force: enumerate all labeled patterns with <= 2 edges over 2
	// labels, compute MNI by full enumeration.
	var cands []*pattern.Pattern
	for la := uint32(0); la < 2; la++ {
		for lb := la; lb < 2; lb++ {
			p := pattern.Chain(2)
			p.SetLabel(0, la)
			p.SetLabel(1, lb)
			cands = append(cands, p)
		}
	}
	// 2-edge patterns: chains 0-1,1-2 with all label combos.
	for la := uint32(0); la < 2; la++ {
		for lb := uint32(0); lb < 2; lb++ {
			for lc := uint32(0); lc < 2; lc++ {
				p := pattern.Chain(3)
				p.SetLabel(0, la)
				p.SetLabel(1, lb)
				p.SetLabel(2, lc)
				cands = append(cands, p)
			}
		}
	}
	want := map[string]int64{}
	for _, p := range cands {
		sup := bruteMNI(g, p)
		if sup >= tau {
			code := string(p.Canonical())
			if old, ok := want[code]; !ok || sup > old {
				want[code] = sup
			}
		}
	}
	for code, sup := range want {
		if got[code] != sup {
			t.Errorf("pattern code %.40s...: FSM support %d, brute %d", code, got[code], sup)
		}
	}
	for code := range got {
		if _, ok := want[code]; !ok {
			t.Errorf("FSM reported unexpected frequent pattern %.40s...", code)
		}
	}
}

func bruteMNI(g *Graph, p *pattern.Pattern) int64 {
	n := p.NumVertices()
	domains := make([]map[uint32]bool, n)
	for i := range domains {
		domains[i] = map[uint32]bool{}
	}
	bound := make([]uint32, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			for j, v := range bound {
				domains[j][v] = true
			}
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			x := uint32(v)
			if l := p.Label(i); l != pattern.NoLabel && g.Label(x) != l {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if bound[j] == x || (p.HasEdge(i, j) && !g.HasEdge(x, bound[j])) {
					ok = false
					break
				}
			}
			if ok {
				bound[i] = x
				rec(i + 1)
			}
		}
	}
	rec(0)
	sup := int64(g.NumVertices() + 1)
	for _, d := range domains {
		if int64(len(d)) < sup {
			sup = int64(len(d))
		}
	}
	return sup
}
