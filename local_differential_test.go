package decomine

// Differential tests for local bitset neighbourhoods (internal/ast's
// local.go): every plan the System chooses runs lowered as it ships
// (LowerWith, whose local regions run on words on every root that fits
// the word budget) and in the list form alone (LowerListForm). Globals,
// and for emission plans the multiset of emitted partial embeddings,
// must be bit-identical on one thread and on four, and the word form
// must execute the same instructions plus one local.build per root.
// FuzzLocalForm draws the pattern, mode and graph; CI runs it as a
// fuzz-smoke step.

import (
	"math/rand"
	"slices"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/pattern"
)

// checkLocalForm runs plan lowered with and without local regions on g
// and holds the word form to the contract above. It returns the
// lowered code's local.build instructions.
func checkLocalForm(t *testing.T, g *Graph, plan *core.Plan, name string, threads int) []ast.Instr {
	t.Helper()
	code := plan.Lowered()
	list := ast.LowerListForm(plan.Prog, plan.LowerOpts)
	want, got := runLowered(t, g, plan, list, threads), runLowered(t, g, plan, code, threads)
	if !slices.Equal(got.res.Globals, want.res.Globals) || got.emits != want.emits || got.digest != want.digest {
		t.Fatalf("%s, %d threads: globals %v, %d emits (digest %x) local; %v, %d emits (digest %x) list form\n%s",
			name, threads, got.res.Globals, got.emits, got.digest, want.res.Globals, want.emits, want.digest, code.Disassemble())
	}
	for op, n := range got.res.OpCounts {
		if w := want.res.OpCounts[op]; op != int(ast.ILocalBuild) && n != w || op == int(ast.ILocalBuild) && w != 0 {
			t.Fatalf("%s, %d threads: %d %s instructions local, %d in the list form\n%s",
				name, threads, n, ast.OpCode(op), w, code.Disassemble())
		}
	}
	var builds []ast.Instr
	for _, ins := range code.Code {
		if ins.Op == ast.ILocalBuild {
			builds = append(builds, ins)
		}
	}
	return builds
}

// budgetGraph is a sparse G(n,p) with two vertices adjacent to most of
// the others, whose neighbourhoods are wider than the word budget, and
// four adjacent to about 40 % of them, whose neighbourhoods take two or
// three words: a plan indexing N(v0) runs some roots in each form, and
// some on more than one word.
func budgetGraph(seed int64) *Graph {
	const n = 320
	r := rand.New(rand.NewSource(seed))
	var edges [][2]uint32
	for u := range n {
		for v := u + 1; v < n; v++ {
			p := 0.04
			switch {
			case u < 2:
				p = 0.9
			case u < 6:
				p = 0.4
			}
			if r.Float64() < p {
				edges = append(edges, [2]uint32{uint32(u), uint32(v)})
			}
		}
	}
	// No hub rows: a hub in S would keep the list form for its own
	// reason.
	return NewGraph(n, edges).BuildHubIndex(n)
}

func TestLocalDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	k6e, err := ParsePattern("0-1,0-2,0-3,0-4,0-5,1-2,1-3,1-4,1-5,2-3,2-4,2-5,3-4,3-5")
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name   string
		g      *Graph
		census []int // motif sizes whose census plans run
	}{
		{"community", GenerateCommunity(160, 3, 8, 7), []int{3, 4, 5}},
		{"gnp", GenerateGNP(120, 0.07, 9), []int{3, 4, 5}},
		{"hub-rmat", GenerateRMAT(8, 6, 5).BuildHubIndex(24), []int{3, 4, 5}},
		{"budget", budgetGraph(3), []int{3, 4}},
	}
	for _, gc := range graphs {
		t.Run(gc.name, func(t *testing.T) {
			s := NewSystem(gc.g, Options{Threads: 2, ProfileSampleEdges: 2000, ProfileTrials: 1000})
			defer s.Close()
			planCensus(t, s, gc.census...)
			for _, p := range append(pattern.ConnectedPatterns(4), pattern.Clique(5)) {
				if _, _, err := s.emitPlan(p); err != nil {
					t.Fatalf("emission plan of %s: %v", p, err)
				}
			}
			for _, p := range []*pattern.Pattern{pattern.Clique(5), pattern.Clique(6), k6e.p} {
				for _, induced := range []bool{false, true} {
					if _, _, err := s.planFor(planReq{pat: p, induced: induced}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := s.PseudoCliqueCount(5, 1); err != nil {
				t.Fatal(err)
			}
			plans, names := cachedPlans(s)
			local, wide := 0, 0
			for i, plan := range plans {
				var builds []ast.Instr
				for _, threads := range []int{1, 4} {
					builds = checkLocalForm(t, gc.g, plan, names[i], threads)
				}
				if len(builds) > 0 {
					local++
				}
				// A region indexing N(v0) itself meets both forms here.
				code := plan.Lowered()
				for _, b := range builds {
					if slices.ContainsFunc(code.Code, func(in ast.Instr) bool {
						return in.Op == ast.ISetDef && in.Set == ast.OpNeighbors && in.Dst == b.A
					}) {
						wide++
					}
				}
			}
			if local == 0 {
				t.Fatalf("no local region among %d plans", len(plans))
			}
			if gc.name == "budget" && (wide == 0 || gc.g.MaxDegree() <= 64*4) {
				t.Fatalf("%d regions index N(v0) on a graph of maximum degree %d", wide, gc.g.MaxDegree())
			}
			t.Logf("%d of %d plans run local regions, %d indexing N(v0)", local, len(plans), wide)
		})
	}
}

// FuzzLocalForm is the fuzzing face of TestLocalDifferential: a random
// connected pattern of three to six vertices, counted edge- or
// vertex-induced (edge-induced sometimes under a skip plan) or, up to
// five vertices, emitted, on a small random graph, at one and four
// threads.
func FuzzLocalForm(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(43))
	f.Add(int64(-11))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var g *Graph
		switch r.Intn(4) {
		case 0:
			g = GenerateRMAT(6+r.Intn(2), 4+r.Intn(4), r.Int63()).BuildHubIndex(8 + r.Intn(16))
		case 1:
			g = GenerateCommunity(48+r.Intn(48), 2, 5+r.Intn(4), r.Int63())
		case 2:
			// No hub rows: the widest neighbourhoods take several words.
			g = GenerateRMAT(7, 6+r.Intn(6), r.Int63())
			g.BuildHubIndex(g.NumVertices() + 1)
		default:
			g = GenerateGNP(40+r.Intn(40), 0.06+r.Float64()*0.1, r.Int63())
		}
		n := 3 + r.Intn(4)
		p := randomConnectedPattern(r, n)
		// Dense patterns are the ones whose root reaches every vertex.
		for i := 0; i < n; i++ {
			if u, v := r.Intn(n), r.Intn(n); u != v && r.Intn(2) == 0 {
				p.AddEdge(u, v)
			}
		}
		s := NewSystem(g, Options{Threads: 1, Seed: r.Int63(), ProfileSampleEdges: 2000, ProfileTrials: 1000})
		defer s.Close()
		var plan *core.Plan
		name := p.String()
		mode := r.Intn(3)
		if mode == 2 && p.NumVertices() > 5 {
			mode = 0 // emitting every 6-vertex partial embedding is too slow for a fuzz input
		}
		switch mode {
		case 0:
			e, _, err := s.planFor(planReq{pat: p})
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			plan = e.plan
			if ext := shrinkCodes(plan); len(ext) > 0 && r.Intn(2) == 0 {
				if e, _, err = s.planFor(planReq{pat: p, skip: skipKey(ext)}); err != nil {
					t.Fatalf("%s (skip plan): %v", p, err)
				}
				plan, name = e.plan, name+" (skip plan)"
			}
		case 1:
			e, _, err := s.planFor(planReq{pat: p, induced: true})
			if err != nil {
				t.Fatalf("%s (vertex-induced): %v", p, err)
			}
			plan, name = e.plan, name+" (vertex-induced)"
		default:
			var err error
			if plan, _, err = s.emitPlan(p); err != nil {
				t.Fatalf("%s (emission): %v", p, err)
			}
			name += " (emission)"
		}
		for _, threads := range []int{1, 4} {
			checkLocalForm(t, g, plan, name, threads)
		}
	})
}
