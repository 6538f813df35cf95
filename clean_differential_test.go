package decomine

// Differential tests for the bytecode clean-up pass (internal/ast's
// clean.go): every plan the System chooses, lowered with the pass and
// without it, must produce bit-identical globals and as many set-kernel
// dispatches on one thread and on four — the pass may only remove
// instructions. The plans are the ones the counting APIs really run:
// every connected 3–5-vertex pattern's edge-induced plan, the batch
// planner's skip-plan replans and externalized quotients, and the
// direct vertex-induced plans. FuzzLowerClean extends the check to
// fuzzer-chosen patterns and graphs; CI runs it as a fuzz-smoke step.

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/engine"
	"decomine/internal/pattern"
)

var errPlanOnly = errors.New("plan only")

// planOnly is a batch admission hook that refuses every batch: the
// batch planner has then filled the plan cache — skip-plan replans
// included — and nothing has executed.
func planOnly(float64) (func(), error) { return nil, errPlanOnly }

// planCensus compiles, without executing, everything a vertex-induced
// census of each size in ks runs, plus the direct vertex-induced plan
// of every connected pattern of those sizes.
func planCensus(t testing.TB, s *System, ks ...int) {
	t.Helper()
	for _, k := range ks {
		if _, err := s.CountPatterns(MotifPatterns(k), BatchOpts{Induced: true, Admit: planOnly}); !errors.Is(err, errPlanOnly) {
			t.Fatalf("planning the %d-motif census: %v", k, err)
		}
		for _, p := range MotifPatterns(k) {
			if _, _, err := s.planFor(planReq{pat: p.p, induced: true}); err != nil {
				t.Fatalf("vertex-induced plan of %s: %v", p, err)
			}
		}
	}
}

// cachedPlans returns the System's successfully compiled plans, each
// with a description of its cache key.
func cachedPlans(s *System) (plans []*core.Plan, names []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.planCache {
		if e.err != nil {
			continue
		}
		name := e.plan.Desc
		if k.induced {
			name += " (vertex-induced)"
		}
		if k.skip != "" {
			name += " (skip plan)"
		}
		plans = append(plans, e.plan)
		names = append(names, name)
	}
	return plans, names
}

// checkCleanLowering runs plan's cleaned bytecode without rule 9
// (windows change kernel work by design; window_differential_test.go
// covers them) and its uncleaned bytecode on g
// and requires identical globals, and no longer code, no more kernel
// dispatches and no more instructions executed with the pass than
// without it. Where the pass re-fused a count with the intersection
// feeding it, that intersection is now counted over a narrower window:
// less work, possibly on another kernel path. Where it guarded a loop,
// the skipped iterations dispatch nothing. Everywhere else the
// per-kernel counters must be equal. It reports whether the pass
// re-fused a count.
func checkCleanLowering(t *testing.T, g *Graph, plan *core.Plan, name string, threads int) (refused bool) {
	t.Helper()
	raw := ast.LowerUncleaned(plan.Prog, plan.LowerOpts)
	clean := ast.LowerUnwindowed(plan.Prog, plan.LowerOpts)
	if len(clean.Code) > len(raw.Code) {
		t.Fatalf("%s: cleaned code is longer (%d > %d)", name, len(clean.Code), len(raw.Code))
	}
	run := func(code *ast.Lowered) *engine.Result {
		res, err := engine.Run(g.g, plan.Prog, engine.Options{Threads: threads, Code: code})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	want, got := run(raw), run(clean)
	if !slices.Equal(got.Globals, want.Globals) {
		t.Fatalf("%s, %d threads: globals %v cleaned, %v uncleaned\n%s", name, threads, got.Globals, want.Globals, clean.Disassemble())
	}
	refused = intersections(clean) < intersections(raw)
	guarded := slices.ContainsFunc(clean.Code, func(in ast.Instr) bool { return in.Op == ast.ILoopBegin && in.B >= 0 })
	if sum(got.KernelCounts) > sum(want.KernelCounts) ||
		!refused && !guarded && (!slices.Equal(got.KernelCounts, want.KernelCounts) || !slices.Equal(got.KernelElems, want.KernelElems)) {
		t.Fatalf("%s, %d threads (re-fused: %v, guarded: %v): kernels %v/%v cleaned, %v/%v uncleaned", name, threads, refused, guarded,
			got.KernelCounts, got.KernelElems, want.KernelCounts, want.KernelElems)
	}
	if got.InstructionsExecuted() > want.InstructionsExecuted() {
		t.Fatalf("%s, %d threads: %d instructions cleaned, %d uncleaned", name, threads,
			got.InstructionsExecuted(), want.InstructionsExecuted())
	}
	return refused
}

// intersections counts the materializing intersections in code.
func intersections(code *ast.Lowered) int {
	n := 0
	for _, ins := range code.Code {
		if ins.Op == ast.ISetDef && ins.Set == ast.OpIntersect {
			n++
		}
	}
	return n
}

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}

func TestLowerCleanDifferential(t *testing.T) {
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
			plans, names := cachedPlans(s)
			skips, refused := 0, 0
			for i, plan := range plans {
				if strings.HasSuffix(names[i], "(skip plan)") {
					skips++
				}
				for _, threads := range []int{1, 4} {
					if checkCleanLowering(t, gc.g, plan, names[i], threads) && threads == 1 {
						refused++
					}
				}
			}
			if skips == 0 {
				t.Fatalf("no skip-plan replans among %d plans", len(plans))
			}
			if refused == 0 {
				t.Fatalf("no re-fused count among %d plans", len(plans))
			}
		})
	}
}

// TestCensusCycleSkipPlanIsLean pins what the pass buys on the hottest
// plan of the 5-motif census benchmark: the 5-cycle's skip plan
// on R-MAT(10, 8) with hub rows from degree 64, whose innermost loop
// body was 18 instructions before the pass (4 reset/accumulate copy
// pairs, one product computed and added twice, two empty conditionals).
// Every product that body adds has the factor |N(v1) ∩ N(v0) − {v2}|,
// so the loop is guarded on N(v1) ∩ N(v0) (rule 8).
func TestCensusCycleSkipPlanIsLean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 5-motif census")
	}
	s := NewSystem(GenerateRMAT(10, 8, 1).BuildHubIndex(64), Options{Threads: 2})
	defer s.Close()
	planCensus(t, s, 5)
	cycle, err := ParsePattern("0-2,0-4,1-2,1-3,3-4")
	if err != nil {
		t.Fatal(err)
	}
	var skip *core.Plan
	s.mu.Lock()
	for k, e := range s.planCache {
		if k.code == cycle.p.Canonical() && k.skip != "" && e.err == nil {
			skip = e.plan
		}
	}
	s.mu.Unlock()
	if skip == nil {
		t.Fatal("the census batch did not replan the 5-cycle with quotients skipped")
	}
	code := skip.Lowered()
	var outer []int32 // variables of the loops around the innermost one
	for i, ins := range code.Code {
		if ins.Op != ast.ILoopBegin {
			continue
		}
		next := ins.Off - 1
		innermost := true
		for _, in := range code.Code[i+1 : next] {
			innermost = innermost && in.Op != ast.ILoopBegin
		}
		if !innermost {
			outer = append(outer, ins.Dst)
			continue
		}
		// The body runs from the instruction after loop.begin through the
		// loop.next that closes it.
		if body := next - int32(i); body > 6 {
			t.Fatalf("innermost loop at %03d has a %d-instruction body, want <= 6:\n%s", i, body, code.Disassemble())
		}
		if !guardedOnCommonNeighbors(code, &ins, outer) {
			t.Fatalf("innermost loop at %03d is not guarded on the outer loops' common neighbors %v:\n%s", i, outer, code.Disassemble())
		}
	}
}

// guardedOnCommonNeighbors reports whether loop begin is guarded on
// N(va) ∩ N(vb) for the two variables of vars.
func guardedOnCommonNeighbors(code *ast.Lowered, begin *ast.Instr, vars []int32) bool {
	def := func(r int32) *ast.Instr {
		for i := range code.Code {
			if in := &code.Code[i]; in.Op == ast.ISetDef && in.Dst == r {
				return in
			}
		}
		return nil
	}
	g := def(begin.B)
	if begin.B < 0 || g == nil || g.Set != ast.OpIntersect || len(vars) != 2 {
		return false
	}
	a, b := def(g.A), def(g.B)
	return a != nil && b != nil && a.Set == ast.OpNeighbors && b.Set == ast.OpNeighbors &&
		slices.Contains(vars, a.V) && slices.Contains(vars, b.V) && a.V != b.V
}

// TestCliqueSixPlanIsLean pins what rule 6 of the clean-up pass and the
// count re-fusion after it buy on the hottest plan of the pseudo-clique
// benchmark: K6's direct plan, whose innermost body was N(v4), s16 ∩
// N(v4), four trims and a count windowed above v4, global.add and
// loop.next. The restrictions order v0 < … < v4, so only the window
// above v4 does anything, and the body is N(v4), one count of s16 ∩
// N(v4) windowed above v4, global.add and loop.next.
func TestCliqueSixPlanIsLean(t *testing.T) {
	s := NewSystem(GenerateCommunity(160, 3, 8, 7), Options{Threads: 2})
	defer s.Close()
	k6, err := PatternByName("clique-6")
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.planFor(planReq{pat: k6.p, induced: true})
	if err != nil {
		t.Fatal(err)
	}
	code := e.plan.Lowered()
	var inner []ast.Instr
	for i, ins := range code.Code {
		if ins.Op != ast.ILoopBegin {
			continue
		}
		// The body runs through the loop.next that closes it.
		body := code.Code[i+1 : ins.Off]
		if !slices.ContainsFunc(body, func(in ast.Instr) bool { return in.Op == ast.ILoopBegin }) {
			inner = body
		}
	}
	ok := len(inner) == 4 &&
		inner[0].Op == ast.ISetDef && inner[0].Set == ast.OpNeighbors &&
		inner[1].Op == ast.ICount && inner[1].B == inner[0].Dst && inner[1].V == inner[0].V &&
		inner[1].SA < 0 && inner[1].NKeys == 0 &&
		inner[2].Op == ast.IGlobalAdd && inner[2].SA == inner[1].Dst &&
		inner[3].Op == ast.ILoopNext
	if !ok {
		t.Fatalf("innermost body of the K6 plan is not N(v), |s ∩ N(v) : x > v|, global.add, loop.next:\n%s", code.Disassemble())
	}
}

// FuzzLowerClean is the fuzzing face of TestLowerCleanDifferential: a
// random connected pattern of at most five vertices, edge- or
// vertex-induced and, for edge-induced decompositions, sometimes under a
// skip plan externalizing every shrinkage quotient, on a small random
// graph; cleaned and uncleaned bytecode must agree.
func FuzzLowerClean(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(29))
	f.Add(int64(-5150))
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
		p := randomConnectedPattern(r, 3+r.Intn(3))
		s := NewSystem(g, Options{Threads: 1, Seed: r.Int63(), ProfileSampleEdges: 2000, ProfileTrials: 1000})
		defer s.Close()
		induced := r.Intn(2) == 0
		e, _, err := s.planFor(planReq{pat: p, induced: induced})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		plan, name := e.plan, p.String()
		if ext := shrinkCodes(plan); len(ext) > 0 && r.Intn(2) == 0 {
			if e, _, err = s.planFor(planReq{pat: p, skip: skipKey(ext)}); err != nil {
				t.Fatalf("%s (skip plan): %v", p, err)
			}
			plan, name = e.plan, name+" (skip plan)"
		}
		checkCleanLowering(t, g, plan, name, 1+r.Intn(4))
	})
}

// shrinkCodes is the set of shrinkage quotients plan enumerates.
func shrinkCodes(plan *core.Plan) map[pattern.Code]bool {
	ext := map[pattern.Code]bool{}
	for _, sh := range plan.Shrink {
		ext[sh.Code] = true
	}
	return ext
}
