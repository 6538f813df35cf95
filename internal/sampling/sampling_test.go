package sampling

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/vset"
)

func TestConnectedOrder(t *testing.T) {
	for _, p := range []*pattern.Pattern{
		pattern.Clique(4), pattern.Cycle(5), pattern.Chain(4), pattern.Star(5), pattern.House(),
	} {
		order := connectedOrder(p)
		if len(order) != p.NumVertices() {
			t.Fatalf("%s: order %v", p, order)
		}
		seen := map[int]bool{order[0]: true}
		for i := 1; i < len(order); i++ {
			adj := false
			for j := 0; j < i; j++ {
				if p.HasEdge(order[i], order[j]) {
					adj = true
				}
			}
			if !adj {
				t.Fatalf("%s: order %v not connected at %d", p, order, i)
			}
			if seen[order[i]] {
				t.Fatalf("%s: duplicate in order %v", p, order)
			}
			seen[order[i]] = true
		}
	}
	if connectedOrder(pattern.MustParse("0-1,2-3")) != nil {
		t.Fatal("disconnected pattern got an order")
	}
}

func TestEstimatorAccuracyOnSmallGraph(t *testing.T) {
	// On a small graph the estimator (with many trials) must land within
	// ~20% of the exact tuple counts for frequent patterns.
	g := graph.GNP(120, 0.12, 99)
	prof := BuildProfile(g, Options{SampleEdges: 1 << 30, Trials: 60_000, Seed: 7})
	for _, pat := range []*pattern.Pattern{
		pattern.Chain(3), pattern.Clique(3), pattern.Chain(4), pattern.Cycle(4),
	} {
		exact := float64(bruteTuples(g, pat))
		if exact == 0 {
			continue
		}
		got, ok := prof.Count(pat)
		if !ok {
			t.Fatalf("no estimate for %s", pat)
		}
		if rel := math.Abs(got-exact) / exact; rel > 0.2 {
			t.Errorf("%s: est %.0f vs exact %.0f (rel err %.2f)", pat, got, exact, rel)
		}
	}
}

func TestProfileRelativeOrdering(t *testing.T) {
	// On any graph, 3-chains outnumber triangles (as tuple counts,
	// 3-chain tuples >= 2x triangle tuples is typical for sparse GNP).
	g := graph.GNP(500, 0.03, 5)
	prof := BuildProfile(g, Options{Trials: 20_000, Seed: 1})
	chains, _ := prof.Count(pattern.Chain(3))
	tris, _ := prof.Count(pattern.Clique(3))
	if chains <= tris {
		t.Fatalf("ordering wrong: chains %.0f <= triangles %.0f", chains, tris)
	}
}

func TestProfileOnDemand(t *testing.T) {
	g := graph.GNP(100, 0.1, 3)
	prof := BuildProfile(g, Options{Trials: 5_000, Seed: 2})
	if len(prof.counts) != 0 {
		t.Fatalf("BuildProfile estimated %d shapes eagerly", len(prof.counts))
	}
	c1, ok := prof.Count(pattern.Cycle(4))
	if !ok {
		t.Fatal("on-demand profiling failed")
	}
	c2, _ := prof.Count(pattern.MustParse("0-2,2-1,1-3,3-0"))
	if c1 != c2 || len(prof.counts) != 1 {
		t.Fatalf("a respelled 4-cycle got %v, want the cached %v (%d entries)", c2, c1, len(prof.counts))
	}
	// Disconnected pattern: no estimate.
	if _, ok := prof.Count(pattern.MustParse("0-1,2-3")); ok {
		t.Fatal("disconnected pattern estimated")
	}
}

func TestProfileSamplesLargeGraphs(t *testing.T) {
	g := graph.MustDataset("ee")
	prof := BuildProfile(g, Options{SampleEdges: 2000, Trials: 2_000, Seed: 3})
	if prof.SampleEdges > 2000 {
		t.Fatalf("sample has %d edges", prof.SampleEdges)
	}
	if c, ok := prof.Count(pattern.Clique(3)); !ok || c <= 0 {
		t.Fatalf("triangle estimate %f %v on dense small-world sample", c, ok)
	}
}

func TestSingleVertexCount(t *testing.T) {
	g := graph.GNP(50, 0.1, 4)
	prof := BuildProfile(g, Options{Trials: 100, Seed: 5})
	c, ok := prof.Count(pattern.New(1))
	if !ok || c != float64(prof.SampleVertices) {
		t.Fatalf("1-vertex count = %f %v", c, ok)
	}
}

// shapes returns every connected shape of 3 to 5 vertices.
func shapes() []*pattern.Pattern {
	var out []*pattern.Pattern
	for k := 3; k <= 5; k++ {
		out = append(out, pattern.ConnectedPatterns(k)...)
	}
	return out
}

// TestProfileEstimatesArePure: a shape's estimate depends only on the
// sample, the seed and the unlabeled shape — not on which shapes were
// asked before it, how it is spelled or labeled, or how many goroutines
// ask at once.
func TestProfileEstimatesArePure(t *testing.T) {
	g := graph.GNP(150, 0.06, 11)
	opts := Options{Trials: 2_000, Seed: 4}
	pats := shapes()
	want := make([]float64, len(pats))
	forward := BuildProfile(g, opts)
	for i, p := range pats {
		want[i], _ = forward.Count(p)
	}

	backward := BuildProfile(g, opts)
	for i := len(pats) - 1; i >= 0; i-- {
		if got, _ := backward.Count(pats[i]); got != want[i] {
			t.Errorf("%s: %v asked last-to-first, %v first-to-last", pats[i], got, want[i])
		}
	}

	r := rand.New(rand.NewSource(5))
	respelled := BuildProfile(g, opts)
	for trial := 0; trial < 3; trial++ {
		for _, i := range r.Perm(len(pats)) {
			q := pats[i].Relabel(r.Perm(pats[i].NumVertices()))
			if trial > 0 {
				for v := 0; v < q.NumVertices(); v++ {
					if r.Intn(2) == 0 {
						q.SetLabel(v, uint32(r.Intn(4)))
					}
				}
			}
			if got, _ := respelled.Count(q); got != want[i] {
				t.Errorf("%s spelled %s: %v, want %v", pats[i], q, got, want[i])
			}
		}
	}

	shared := BuildProfile(g, opts)
	got := make([][]float64, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]float64, len(pats))
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(pats)) {
				got[w][i], _ = shared.Count(pats[i])
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i := range pats {
			if got[w][i] != want[i] {
				t.Errorf("goroutine %d, %s: %v, want %v", w, pats[i], got[w][i], want[i])
			}
		}
	}
}

// bruteTuples counts the injective tuples matching pat on g, extending
// along a connected order over common neighbors of the bound vertices
// and counting the last level by set size.
func bruteTuples(g *graph.Graph, pat *pattern.Pattern) int64 {
	order := connectedOrder(pat)
	n := len(order)
	bound := make([]uint32, n)
	var count int64
	var rec func(i int)
	rec = func(i int) {
		var cand []uint32
		for j := 0; j < i; j++ {
			if !pat.HasEdge(order[i], order[j]) {
				continue
			}
			if cand == nil {
				cand = g.Neighbors(bound[j])
			} else {
				cand = vset.Intersect(nil, cand, g.Neighbors(bound[j]))
			}
		}
		if i == n-1 {
			k := len(cand)
			for j := 0; j < i; j++ {
				if vset.Contains(cand, bound[j]) {
					k--
				}
			}
			count += int64(k)
			return
		}
	next:
		for _, x := range cand {
			for j := 0; j < i; j++ {
				if bound[j] == x {
					continue next
				}
			}
			bound[i] = x
			rec(i + 1)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		bound[0] = uint32(v)
		rec(1)
	}
	return count
}

// TestProfileQError bounds the estimator's q-error — max(est/exact,
// exact/est) — against exact tuple counts for every connected 3–5-vertex
// shape on a G(n,p) and a community graph, at the default trial count
// on the whole graph. The bounds sit just above what the per-shape
// streams reach (median ≈ 1.01, max ≈ 1.1 on these graphs).
func TestProfileQError(t *testing.T) {
	for _, g := range []*graph.Graph{graph.GNP(200, 0.05, 21), graph.Community(200, 2, 8, 22)} {
		prof := BuildProfile(g, Options{SampleEdges: 1 << 30, Seed: 1})
		var qs []float64
		for _, p := range shapes() {
			exact := float64(bruteTuples(g, p))
			if exact == 0 {
				continue
			}
			est, _ := prof.Count(p)
			qs = append(qs, math.Max(est/exact, exact/est))
		}
		sort.Float64s(qs)
		med, mx := qs[len(qs)/2], qs[len(qs)-1]
		t.Logf("%s: %d shapes, q-error median %.4f, max %.4f", g.Name(), len(qs), med, mx)
		if med > 1.05 || mx > 1.5 {
			t.Errorf("%s: q-error median %.4f, max %.4f", g.Name(), med, mx)
		}
	}
}

// TestWalkMatchesReference: the copy-free walk draws the same random
// numbers in the same order and sums the same float64 weights as the
// copying walk it replaced (referenceWalk, kept verbatim), so every
// estimate is bit-identical, for every connected 2–6-vertex shape on a
// uniform and a skewed graph.
func TestWalkMatchesReference(t *testing.T) {
	var pats []*pattern.Pattern
	for k := 2; k <= 6; k++ {
		pats = append(pats, pattern.ConnectedPatterns(k)...)
	}
	for _, g := range []*graph.Graph{graph.GNP(240, 0.025, 1), graph.RMAT(10, 8, 1)} {
		prof := BuildProfile(g, Options{Trials: 5000, Seed: 1000})
		for i, pat := range pats {
			seed := int64(i) + 1
			got := prof.walk(pat, rand.New(rand.NewSource(seed)))
			want := referenceWalk(prof, pat, rand.New(rand.NewSource(seed)))
			if got != want {
				t.Errorf("%s on %d vertices: walk %v, reference %v", pat, g.NumVertices(), got, want)
			}
		}
	}
}

// referenceWalk is the estimator walk before it read candidates straight
// from the adjacency rows, verbatim.
func referenceWalk(p *Profile, pat *pattern.Pattern, rng *rand.Rand) float64 {
	order := connectedOrder(pat)
	if order == nil {
		return 0
	}
	g := p.sample
	edges := p.edges
	m := int64(len(edges))
	if m == 0 {
		return 0
	}
	n := pat.NumVertices()
	bound := make([]uint32, n)
	var cand []uint32
	var scratch []uint32
	var total float64
	for trial := 0; trial < p.trials; trial++ {
		e := edges[rng.Intn(len(edges))]
		u, v := e[0], e[1]
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		weight := 2 * float64(m)
		bound[order[0]], bound[order[1]] = u, v
		ok := true
		// The first two pattern vertices must be adjacent (connected
		// order guarantees it); remaining are sampled from candidates.
		for i := 2; i < n && ok; i++ {
			pv := order[i]
			cand = cand[:0]
			first := true
			for j := 0; j < i; j++ {
				if !pat.HasEdge(pv, order[j]) {
					continue
				}
				nb := g.Neighbors(bound[order[j]])
				if first {
					cand = append(cand[:0], nb...)
					first = false
				} else {
					scratch = vset.Intersect(scratch, cand, nb)
					cand, scratch = scratch, cand
				}
			}
			// Distinctness: drop already-bound vertices.
			k := 0
			for _, x := range cand {
				dup := false
				for j := 0; j < i; j++ {
					if bound[order[j]] == x {
						dup = true
						break
					}
				}
				if !dup {
					cand[k] = x
					k++
				}
			}
			cand = cand[:k]
			if len(cand) == 0 {
				ok = false
				break
			}
			weight *= float64(len(cand))
			bound[pv] = cand[rng.Intn(len(cand))]
		}
		if !ok {
			continue
		}
		// Verify the remaining (non-tree) pattern edges: extension used
		// only bound-neighbor intersections, which already enforce all
		// edges to earlier vertices, so the sample is exact.
		total += weight
	}
	return total / float64(p.trials)
}
