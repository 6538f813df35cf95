package decomine

// Differential tests for windowed intersections (clean-up rule 9 in
// internal/ast's clean.go): every plan the System chooses runs lowered
// with windows (LowerListForm: LowerWith without local regions, whose
// word form replaces the windowed merges) and without them
// (LowerUnwindowed). Globals,
// and for emission plans the multiset of emitted partial embeddings,
// must be bit-identical on one thread and on four; the windowed run
// must make as many kernel dispatches and no more instructions or
// kernel elements. Windows may move a dispatch between merge and
// gallop, so only totals are compared. FuzzWindowedIntersections
// draws the pattern, mode and graph; CI runs it as a fuzz-smoke step.

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/engine"
	"decomine/internal/pattern"
)

// windowedRun is one run's result plus, for emission plans, how many
// partial embeddings it emitted and an order-independent digest of
// them.
type windowedRun struct {
	res           *engine.Result
	emits, digest uint64
}

// runLowered runs code on g, collecting what it emits: each worker sums
// a hash of every (subpattern, vertices, count) it receives.
func runLowered(t *testing.T, g *Graph, plan *core.Plan, code *ast.Lowered, threads int) windowedRun {
	t.Helper()
	var workers []*windowedRun
	opts := engine.Options{Threads: threads, Code: code}
	if slices.ContainsFunc(code.Code, func(in ast.Instr) bool { return in.Op == ast.IEmit }) {
		opts.NewConsumer = func(int) engine.Consumer {
			w := &windowedRun{}
			workers = append(workers, w)
			return engine.ConsumerFunc(func(sub int, verts []uint32, count int64) bool {
				h := uint64(sub)
				for _, v := range verts {
					h = (h ^ uint64(v)) * 0x100000001b3
				}
				h = (h ^ uint64(count)) * 0x9e3779b97f4a7c15
				w.emits++
				w.digest += h ^ h>>29
				return true
			})
		}
	}
	res, err := engine.Run(g.g, plan.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := windowedRun{res: res}
	for _, w := range workers {
		out.emits += w.emits
		out.digest += w.digest
	}
	return out
}

// checkWindowedLowering runs plan with and without rule 9 on g and
// holds the windowed run to the contract above. It reports whether rule
// 9 windowed any intersection of the plan.
func checkWindowedLowering(t *testing.T, g *Graph, plan *core.Plan, name string, threads int) (windowed bool) {
	t.Helper()
	plain := ast.LowerUnwindowed(plan.Prog, plan.LowerOpts)
	win := ast.LowerListForm(plan.Prog, plan.LowerOpts)
	want, got := runLowered(t, g, plan, plain, threads), runLowered(t, g, plan, win, threads)
	if !slices.Equal(got.res.Globals, want.res.Globals) || got.emits != want.emits || got.digest != want.digest {
		t.Fatalf("%s, %d threads: globals %v, %d emits (digest %x) windowed; %v, %d emits (digest %x) unwindowed\n%s",
			name, threads, got.res.Globals, got.emits, got.digest, want.res.Globals, want.emits, want.digest, win.Disassemble())
	}
	if sum(got.res.KernelCounts) != sum(want.res.KernelCounts) || sum(got.res.KernelElems) > sum(want.res.KernelElems) {
		t.Fatalf("%s, %d threads: kernels %v/%v windowed, %v/%v unwindowed\n%s", name, threads,
			got.res.KernelCounts, got.res.KernelElems, want.res.KernelCounts, want.res.KernelElems, win.Disassemble())
	}
	if got.res.InstructionsExecuted() > want.res.InstructionsExecuted() {
		t.Fatalf("%s, %d threads: %d instructions windowed, %d unwindowed", name, threads,
			got.res.InstructionsExecuted(), want.res.InstructionsExecuted())
	}
	return slices.ContainsFunc(win.Code, func(in ast.Instr) bool {
		return in.Op == ast.ISetDef && in.Set == ast.OpIntersect && (in.WinLo >= 0 || in.WinHi >= 0)
	})
}

func TestWindowDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"hub-rmat", GenerateRMAT(8, 6, 5).BuildHubIndex(24)},
		{"community", GenerateCommunity(160, 3, 8, 7)},
	}
	for _, gc := range graphs {
		t.Run(gc.name, func(t *testing.T) {
			s := NewSystem(gc.g, Options{Threads: 2, ProfileSampleEdges: 2000, ProfileTrials: 1000})
			defer s.Close()
			planCensus(t, s, 3, 4, 5)
			for _, p := range append(pattern.ConnectedPatterns(4), pattern.Clique(5), pattern.Clique(6)) {
				if _, _, err := s.emitPlan(p); err != nil {
					t.Fatalf("emission plan of %s: %v", p, err)
				}
			}
			if _, _, err := s.planFor(planReq{pat: pattern.Clique(6)}); err != nil {
				t.Fatal(err)
			}
			plans, names := cachedPlans(s)
			windowed, emitting := 0, 0
			for i, plan := range plans {
				if slices.ContainsFunc(plan.Lowered().Code, func(in ast.Instr) bool { return in.Op == ast.IEmit }) {
					emitting++
				}
				for _, threads := range []int{1, 4} {
					if checkWindowedLowering(t, gc.g, plan, names[i], threads) && threads == 1 {
						windowed++
					}
				}
			}
			if windowed == 0 || emitting == 0 {
				t.Fatalf("%d windowed and %d emitting plans among %d", windowed, emitting, len(plans))
			}
		})
	}
}

// FuzzWindowedIntersections is the fuzzing face of
// TestWindowDifferential: a random connected pattern of three to six
// vertices, counted edge- or vertex-induced (edge-induced sometimes
// under a skip plan) or, up to five vertices, emitted, on a small
// random graph, at one and four threads.
func FuzzWindowedIntersections(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var g *Graph
		switch r.Intn(3) {
		case 0:
			g = GenerateRMAT(6+r.Intn(2), 4+r.Intn(4), r.Int63()).BuildHubIndex(8 + r.Intn(16))
		case 1:
			g = GenerateCommunity(48+r.Intn(48), 2, 5+r.Intn(4), r.Int63())
		default:
			g = GenerateGNP(40+r.Intn(40), 0.06+r.Float64()*0.1, r.Int63())
		}
		p := randomConnectedPattern(r, 3+r.Intn(4))
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
			checkWindowedLowering(t, g, plan, name, threads)
		}
	})
}

// TestExecStatsKernelElems: a run's ExecStats carry the engine's
// per-kernel element totals whether or not the profiler is on, and
// windows cut K6's element work on pclique6's graph.
func TestExecStatsKernelElems(t *testing.T) {
	if testing.Short() {
		t.Skip("counts K6 on a 768-vertex community graph")
	}
	g := GenerateCommunity(768, 6, 12, 1)
	s := NewSystem(g, Options{Threads: 2})
	defer s.Close()
	k6 := &Pattern{pattern.Clique(6)}
	res, err := s.CountPattern(k6, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.planFor(planReq{pat: k6.p})
	if err != nil {
		t.Fatal(err)
	}
	run := func(code *ast.Lowered) *engine.Result {
		r, err := engine.Run(g.g, e.plan.Prog, engine.Options{Threads: 1, Code: code})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	win, plain := run(e.plan.Lowered()), run(ast.LowerUnwindowed(e.plan.Prog, e.plan.LowerOpts))
	if got, want := res.Stats.Exec.KernelElems, kernelMap(win.KernelElems); len(got) == 0 || !maps.Equal(got, want) {
		t.Fatalf("ExecStats.KernelElems %v, engine totals %v", got, want)
	}
	if w, p := sum(win.KernelElems), sum(plain.KernelElems); w >= p {
		t.Fatalf("windows left K6's kernel elements at %d (%d without)", w, p)
	}
	t.Logf("K6 kernel elements: %d windowed, %d without windows", sum(win.KernelElems), sum(plain.KernelElems))
}
