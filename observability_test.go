package decomine

import (
	"sync"
	"testing"

	"decomine/internal/obs"
	"decomine/internal/pattern"
)

// TestPlanCacheCounters asserts the documented counter movement: every
// compiled-plan lookup moves exactly one of Hits / Misses /
// NegativeHits, Explain shares the counting cache, and failed searches
// are served from the negative cache on repeat.
func TestPlanCacheCounters(t *testing.T) {
	g := GenerateGNP(60, 0.1, 991)
	sys := testSystem(t, g)
	defer sys.Close()

	cyc := MustParsePattern("0-1,1-2,2-3,3-0")
	if _, err := sys.GetPatternCount(cyc); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.NegativeHits != 0 {
		t.Fatalf("after first count: %+v, want 1 miss only", st)
	}

	// Same pattern again: a hit, no new search.
	if _, err := sys.GetPatternCount(cyc); err != nil {
		t.Fatal(err)
	}
	if st = sys.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat count: %+v, want 1 hit / 1 miss", st)
	}

	// Explain shares the plan cache with the counting APIs
	// (decomine.go): explaining a mined pattern runs no search.
	if _, err := sys.Explain(cyc); err != nil {
		t.Fatal(err)
	}
	if st = sys.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("after Explain of cached pattern: %+v, want 2 hits / 1 miss", st)
	}

	// ...and mining a pattern that was only explained reuses its plan.
	chain := MustParsePattern("0-1,1-2")
	if _, err := sys.Explain(chain); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GetPatternCount(chain); err != nil {
		t.Fatal(err)
	}
	if st = sys.CacheStats(); st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("after Explain-then-count: %+v, want 3 hits / 2 misses", st)
	}

	// A pattern with no valid plan: the first lookup runs (and fails)
	// the search, repeats are negative-cache hits.
	disc := MustParsePattern("0-1,2-3")
	for i := 0; i < 3; i++ {
		if _, err := sys.GetPatternCount(disc); err == nil {
			t.Fatal("disconnected pattern should fail")
		}
	}
	st = sys.CacheStats()
	if st.Misses != 3 || st.NegativeHits != 2 {
		t.Fatalf("after failed searches: %+v, want 3 misses / 2 negative hits", st)
	}
	if st.Hits != 3 {
		t.Fatalf("failed lookups must not count as positive hits: %+v", st)
	}
}

// TestVertexInducedUsesPlanCache checks that a vertex-induced count
// looks up its direct plan and every conversion class's plan in the plan
// cache: the first call searches each once, a repeat searches nothing,
// and a disconnected pattern's direct plan is served from the negative
// cache (its indirect side fails at the recipe, before any search).
func TestVertexInducedUsesPlanCache(t *testing.T) {
	g := GenerateGNP(60, 0.1, 993)
	sys := testSystem(t, g)
	defer sys.Close()

	p := MustParsePattern("0-1,1-2,2-0,2-3")
	lookups := int64(1 + len(pattern.ConversionPlan(p.p)))
	first, err := sys.GetPatternCountVertexInduced(p)
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Misses != lookups || st.Hits != 0 {
		t.Fatalf("after first count: %+v, want %d misses", st, lookups)
	}
	again, err := sys.GetPatternCountVertexInduced(p)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("cached re-run counted %d, first run %d", again, first)
	}
	if st := sys.CacheStats(); st.Misses != lookups || st.Hits != lookups {
		t.Fatalf("after repeat: %+v, want %d hits / %d misses", st, lookups, lookups)
	}

	disc := MustParsePattern("0-1,2-3")
	for i := 0; i < 2; i++ {
		if _, err := sys.GetPatternCountVertexInduced(disc); err == nil {
			t.Fatal("disconnected pattern should fail")
		}
	}
	if st := sys.CacheStats(); st.Misses != lookups+1 || st.NegativeHits != 1 {
		t.Fatalf("after failed searches: %+v, want %d misses / 1 negative hit", st, lookups+1)
	}
}

// TestCountPatternStats checks the per-run stats attached to a Result:
// full compile phases on a miss, no compile phases on a hit, and live
// execution counters either way.
func TestCountPatternStats(t *testing.T) {
	g := GenerateGNP(80, 0.1, 992)
	sys := testSystem(t, g)
	defer sys.Close()

	p := MustParsePattern("0-1,1-2,2-0")
	r1, err := sys.CountPattern(p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.PlanCacheHit {
		t.Error("first run should be a cache miss")
	}
	phases := map[string]bool{}
	for _, ph := range r1.Stats.Phases {
		phases[ph.Phase] = true
	}
	for _, want := range []string{obs.PhaseEnumerate, obs.PhaseRank, obs.PhaseLower, obs.PhaseExecute} {
		if !phases[want] {
			t.Errorf("first run missing phase %q (got %v)", want, r1.Stats.Phases)
		}
	}
	if r1.Stats.CompileTime <= 0 {
		t.Error("first run should report compile time")
	}
	if r1.Stats.Exec.Instructions <= 0 {
		t.Errorf("instructions = %d, want > 0", r1.Stats.Exec.Instructions)
	}
	if len(r1.Stats.WorkPerThread) == 0 {
		t.Error("WorkPerThread empty")
	}
	if len(r1.Stats.Exec.PerOp) == 0 {
		t.Error("PerOp empty")
	}

	r2, err := sys.CountPattern(p, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.PlanCacheHit {
		t.Error("second run should be a cache hit")
	}
	if r2.Stats.CompileTime != 0 {
		t.Errorf("cache hit reported compile time %v", r2.Stats.CompileTime)
	}
	if len(r2.Stats.Phases) != 2 {
		t.Errorf("cache hit phases = %v, want lower+execute only", r2.Stats.Phases)
	}
	if r2.Count != r1.Count {
		t.Errorf("counts differ: %d vs %d", r2.Count, r1.Count)
	}
	if r2.Stats.Exec.Instructions != r1.Stats.Exec.Instructions {
		t.Errorf("instruction counts differ across identical runs: %d vs %d",
			r2.Stats.Exec.Instructions, r1.Stats.Exec.Instructions)
	}
}

// TestPerRunStatsConcurrent checks per-run stats isolation: concurrent
// queries on one System must each observe their *own*
// instruction counts (per-opcode totals are deterministic and
// steal-schedule independent), not a clobbered global snapshot.
func TestPerRunStatsConcurrent(t *testing.T) {
	g := GenerateGNP(80, 0.1, 993)
	names := []string{"chain-3", "clique-3", "cycle-4", "chain-4", "star-4"}

	// Sequential reference run: instructions per pattern.
	ref := map[string]int64{}
	refSys := testSystem(t, g)
	for _, name := range names {
		p, _ := PatternByName(name)
		r, err := refSys.CountPattern(p, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ref[name] = r.Stats.Exec.Instructions
	}
	refSys.Close()

	sys := testSystem(t, g)
	defer sys.Close()
	var wg sync.WaitGroup
	errs := make(chan error, len(names)*4)
	for round := 0; round < 4; round++ {
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				p, _ := PatternByName(name)
				r, err := sys.CountPattern(p, QueryOpts{})
				if err != nil {
					errs <- err
					return
				}
				if r.Stats.Exec.Instructions != ref[name] {
					t.Errorf("%s: concurrent run saw %d instructions, sequential reference %d",
						name, r.Stats.Exec.Instructions, ref[name])
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkObservabilityOverhead times the warm 5-motif census on a
// hub-indexed R-MAT at one thread, where timing noise is smallest, three
// ways: plain ("off"), under the sampling profiler ("profiled") and with
// a request span threaded through every query with retention sampled
// out ("traced", the cost of always-on span creation). The overhead is
// the ratio of the sub-benchmarks' ns/op; "profiled" also reports the
// share of engine time its samples attribute.
func BenchmarkObservabilityOverhead(b *testing.B) {
	g := GenerateRMAT(9, 8, 47).BuildHubIndex(48)
	pats := MotifPatterns(5)
	var want int64 // the first mode's census; every mode must match it
	for _, mode := range []string{"off", "profiled", "traced"} {
		b.Run(mode, func(b *testing.B) {
			sys := NewSystem(g, Options{
				Threads:            1,
				Seed:               42,
				Profile:            mode == "profiled",
				ProfileSampleEdges: 20000,
				ProfileTrials:      4000,
				MaxCandidates:      64,
			})
			defer sys.Close()
			if mode == "traced" {
				defer obs.SetTraceSampling(obs.TraceSampling())
				obs.SetTraceSampling(0)
			}
			census := func() int64 {
				var span *TraceSpan
				if mode == "traced" {
					span = StartTraceSpan("bench.observability-overhead")
					span.SetTenant("bench")
					defer span.End()
				}
				var total int64
				for _, p := range pats {
					r, err := sys.CountPattern(p, QueryOpts{Span: span})
					if err != nil {
						b.Fatal(err)
					}
					total += r.Count
				}
				return total
			}
			got := census() // compiles and caches every plan
			if want == 0 {
				want = got
			} else if got != want {
				b.Fatalf("%s changed the count: %d vs %d", mode, got, want)
			}
			profBase := obs.GlobalProfile()
			base := obs.Default.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := census(); got != want {
					b.Fatalf("%s changed the count: %d vs %d", mode, got, want)
				}
			}
			b.StopTimer()
			if mode == "profiled" {
				if execNS := obs.Default.CounterDelta(base, "engine.exec_ns"); execNS > 0 {
					prof := obs.GlobalProfile().Diff(profBase)
					b.ReportMetric(float64(prof.TotalNS)/float64(execNS), "attributed/exec")
				}
			}
		})
	}
}
