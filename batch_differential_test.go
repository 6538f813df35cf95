package decomine

// Differential tests for batched multi-pattern execution: the shared
// path (cross-query subcount table, externalized shrinkage quotients,
// concurrent waves) must be bit-identical to per-pattern execution,
// across thread counts and graph families, and must execute less.

import (
	"sync"
	"testing"
	"time"

	"decomine/internal/pattern"
)

// batchTestGraphs returns the three graph families the differential
// suite sweeps: G(n,p), R-MAT, and overlapping-community.
func batchTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	return map[string]*Graph{
		"gnp":       GenerateGNP(60, 0.10, 9301),
		"rmat":      GenerateRMAT(6, 6, 9302),
		"community": GenerateCommunity(64, 2, 7, 9303),
	}
}

// sharedHeavyPatterns is a pattern set whose decompositions overlap
// heavily: every connected 4-vertex class plus 5-vertex classes with
// shared quotients (cycles, near-cliques), so the batch's demand
// analysis externalizes quotients and compiles skip plans.
func sharedHeavyPatterns(t *testing.T) []*Pattern {
	t.Helper()
	var ps []*Pattern
	for _, p := range pattern.ConnectedPatterns(4) {
		ps = append(ps, &Pattern{p})
	}
	for _, name := range []string{"cycle-5", "clique-5", "star-5"} {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatalf("PatternByName(%s): %v", name, err)
		}
		ps = append(ps, p)
	}
	return ps
}

// unshared answers every member on its own through the single-query
// path: CountPattern on each of the member's needs, composed by the
// member's recipe. It returns the counts and the instructions executed.
func unshared(t *testing.T, sys *System, pats []*Pattern, induced bool) ([]int64, int64) {
	t.Helper()
	counts := make([]int64, len(pats))
	var instructions int64
	for i, p := range pats {
		m, err := sys.batchMemberFor(p, induced)
		if err != nil {
			t.Fatal(err)
		}
		needs := map[pattern.Code]int64{}
		for j, q := range m.needPats {
			r, err := sys.CountPattern(RawPattern(q), QueryOpts{})
			if err != nil {
				t.Fatalf("%s: need %s: %v", p, q, err)
			}
			needs[m.needs[j]] = r.Count
			instructions += r.Stats.Exec.Instructions
		}
		if counts[i], err = m.eval(needs); err != nil {
			t.Fatal(err)
		}
	}
	return counts, instructions
}

func TestBatchDifferentialEdgeInduced(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	pats := sharedHeavyPatterns(t)
	for gname, g := range batchTestGraphs(t) {
		// Per-pattern reference counts on a single-thread system.
		ref := NewSystem(g, Options{Threads: 1})
		want := make([]int64, len(pats))
		for i, p := range pats {
			c, err := ref.GetPatternCount(p)
			if err != nil {
				t.Fatalf("%s: reference count %s: %v", gname, p, err)
			}
			want[i] = c
		}
		for threads := 1; threads <= 4; threads++ {
			sys := NewSystem(g, Options{Threads: threads})
			br, err := sys.CountPatterns(pats, BatchOpts{})
			if err != nil {
				t.Fatalf("%s threads=%d: batch: %v", gname, threads, err)
			}
			for i := range pats {
				if br.Results[i].Count != want[i] {
					t.Errorf("%s threads=%d pattern %s: batch %d, per-pattern %d",
						gname, threads, pats[i], br.Results[i].Count, want[i])
				}
			}
			ser, serInstructions := unshared(t, sys, pats, false)
			for i := range pats {
				if ser[i] != br.Results[i].Count {
					t.Errorf("%s threads=%d pattern %s: unshared %d, shared %d",
						gname, threads, pats[i], ser[i], br.Results[i].Count)
				}
			}
			// The point of sharing: strictly less execution than counting
			// each member on its own. The plans chosen on the G(n,p) graph
			// share no subquery, so only the skewed and clustered graphs
			// are held to it.
			if gname != "gnp" && (br.Stats.SharedHits <= 0 || br.Stats.Instructions >= serInstructions) {
				t.Errorf("%s threads=%d: shared batch %d instructions and %d shared hits, unshared %d instructions",
					gname, threads, br.Stats.Instructions, br.Stats.SharedHits, serInstructions)
			}
		}
	}
}

func TestBatchDifferentialInduced(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tests are slow")
	}
	var pats []*Pattern
	for _, p := range pattern.ConnectedPatterns(4) {
		pats = append(pats, &Pattern{p})
	}
	for gname, g := range batchTestGraphs(t) {
		ref := NewSystem(g, Options{Threads: 1})
		want := make([]int64, len(pats))
		for i, p := range pats {
			c, err := ref.GetPatternCountVertexInduced(p)
			if err != nil {
				t.Fatalf("%s: reference vi count %s: %v", gname, p, err)
			}
			want[i] = c
		}
		for threads := 1; threads <= 4; threads++ {
			sys := NewSystem(g, Options{Threads: threads})
			br, err := sys.CountPatterns(pats, BatchOpts{Induced: true})
			if err != nil {
				t.Fatalf("%s threads=%d: induced batch: %v", gname, threads, err)
			}
			for i := range pats {
				if br.Results[i].Count != want[i] {
					t.Errorf("%s threads=%d pattern %s: batch vi %d, per-pattern vi %d",
						gname, threads, pats[i], br.Results[i].Count, want[i])
				}
			}
			// Conversion-plan needs overlap across the motif classes, so
			// sharing must engage deterministically.
			if br.Stats.SharedHits <= 0 {
				t.Errorf("%s threads=%d: induced motif batch reported %d shared hits, want > 0",
					gname, threads, br.Stats.SharedHits)
			}
		}
	}
}

func TestBatchSharedHitsDeterministic(t *testing.T) {
	g := GenerateCommunity(48, 2, 6, 404)
	pats := sharedHeavyPatterns(t)
	var baselineHits, baselineSub int64
	for trial := 0; trial < 3; trial++ {
		sys := NewSystem(g, Options{Threads: 1 + trial})
		br, err := sys.CountPatterns(pats, BatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			baselineHits, baselineSub = br.Stats.SharedHits, int64(br.Stats.Subqueries)
			continue
		}
		if br.Stats.SharedHits != baselineHits || int64(br.Stats.Subqueries) != baselineSub {
			t.Errorf("trial %d: shared_hits/subqueries = %d/%d, want %d/%d (thread-count dependent batch accounting)",
				trial, br.Stats.SharedHits, br.Stats.Subqueries, baselineHits, baselineSub)
		}
	}
}

// mapBatchCache is an in-memory BatchCache for tests.
type mapBatchCache struct {
	mu sync.Mutex
	m  map[string]int64
}

func newMapBatchCache() *mapBatchCache { return &mapBatchCache{m: map[string]int64{}} }

func (c *mapBatchCache) Lookup(code string) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[code]
	return v, ok
}

func (c *mapBatchCache) Store(code string, count int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[code]; !ok {
		c.m[code] = count
	}
}

func TestBatchCacheRoundTrip(t *testing.T) {
	g := GenerateGNP(50, 0.12, 77)
	pats := sharedHeavyPatterns(t)
	cache := newMapBatchCache()
	sys := NewSystem(g, Options{Threads: 2})
	first, err := sys.CountPatterns(pats, BatchOpts{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.m) == 0 {
		t.Fatal("first batch stored nothing in the cache")
	}
	second, err := sys.CountPatterns(pats, BatchOpts{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pats {
		if first.Results[i].Count != second.Results[i].Count {
			t.Errorf("pattern %s: cached rerun %d != fresh %d",
				pats[i], second.Results[i].Count, first.Results[i].Count)
		}
	}
	if second.Stats.CacheHits == 0 {
		t.Error("second batch had zero cache hits")
	}
	if second.Stats.Subqueries != 0 {
		t.Errorf("second batch executed %d subqueries, want 0 (all needs cached)", second.Stats.Subqueries)
	}
}

// TestBatchCachedQuotientNotExecuted: a shrinkage quotient the cache
// already holds is externalized and served from the cache, never
// planned and executed as a subquery of its own.
func TestBatchCachedQuotientNotExecuted(t *testing.T) {
	g := GenerateRMAT(9, 8, 1)
	member := []*Pattern{MustParsePattern("0-2,0-4,1-2,1-3")}
	wedge := MustParsePattern("0-1,1-2")
	sys := NewSystem(g, Options{Threads: 2})
	defer sys.Close()
	fresh, err := sys.CountPatterns(member, BatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.CountPattern(wedge, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapBatchCache()
	cache.Store(wedge.CanonicalCode(), w.Count)
	cached, err := sys.CountPatterns(member, BatchOpts{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Results[0].Count != fresh.Results[0].Count {
		t.Fatalf("count with the wedge cached %d, without %d", cached.Results[0].Count, fresh.Results[0].Count)
	}
	// Without the cache the wedge is demanded once and stays in the
	// member's plan; with it, the cache serves it.
	if cached.Stats.CacheHits != 1 || cached.Stats.Subqueries != fresh.Stats.Subqueries {
		t.Errorf("with the wedge cached: %d subqueries, %d cache hits; want %d and 1",
			cached.Stats.Subqueries, cached.Stats.CacheHits, fresh.Stats.Subqueries)
	}
}

// TestBatchFullyCachedSkipsAdmission: a batch the cache answers
// entirely executes nothing, so it never asks for admission.
func TestBatchFullyCachedSkipsAdmission(t *testing.T) {
	g := GenerateGNP(50, 0.12, 77)
	pats := sharedHeavyPatterns(t)
	sys := NewSystem(g, Options{Threads: 2})
	defer sys.Close()
	admits := 0
	opts := BatchOpts{
		Cache: newMapBatchCache(),
		Admit: func(float64) (func(), error) {
			admits++
			return func() {}, nil
		},
	}
	if _, err := sys.CountPatterns(pats, opts); err != nil {
		t.Fatal(err)
	}
	if admits != 1 {
		t.Fatalf("cold batch asked for admission %d times, want 1", admits)
	}
	warm, err := sys.CountPatterns(pats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Subqueries != 0 {
		t.Fatalf("warm batch executed %d subqueries, want 0", warm.Stats.Subqueries)
	}
	if admits != 1 {
		t.Errorf("fully cached batch asked for admission; %d admissions in all, want 1", admits)
	}
}

// TestBatchConcurrentMembersRace drives concurrent batch members on one
// shared pool plus two whole batches racing on the same System; run
// with -race in CI.
func TestBatchConcurrentMembersRace(t *testing.T) {
	g := GenerateCommunity(40, 2, 5, 11)
	pool := NewPool(4)
	defer pool.Close()
	sys := NewSystem(g, Options{Threads: 4, SharedPool: pool})
	pats := sharedHeavyPatterns(t)
	var wg sync.WaitGroup
	results := make([]*BatchResult, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = sys.CountPatterns(pats, BatchOpts{})
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent batch %d: %v", i, errs[i])
		}
	}
	for j := range pats {
		if results[0].Results[j].Count != results[1].Results[j].Count {
			t.Errorf("pattern %s: concurrent batches disagree: %d vs %d",
				pats[j], results[0].Results[j].Count, results[1].Results[j].Count)
		}
	}
}

// TestFSMTruncationHonest verifies the time-budget satellite fix: an
// expired FSM run returns the work it completed with truncated=true
// instead of discarding partial results, and every returned pattern
// agrees with the unbudgeted run.
func TestFSMTruncationHonest(t *testing.T) {
	g := GenerateGNP(120, 0.05, 321).WithRandomLabels(3, 321)
	sys := NewSystem(g, Options{Threads: 2})
	full, err := sys.FSM(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("unbudgeted FSM found nothing; test graph too sparse")
	}
	want := map[string]int64{}
	for _, fp := range full {
		want[fp.Pattern.String()] = fp.Support
	}
	partial, truncated, err := sys.FSMWithin(8, 3, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("nanosecond-budget FSM reported truncated=false")
	}
	if len(partial) == 0 {
		t.Fatal("truncated FSM discarded all completed work (level-1 results must survive)")
	}
	for _, fp := range partial {
		sup, ok := want[fp.Pattern.String()]
		if !ok {
			t.Errorf("truncated FSM invented pattern %s", fp.Pattern)
		} else if sup != fp.Support {
			t.Errorf("truncated FSM support of %s = %d, full run %d", fp.Pattern, fp.Support, sup)
		}
	}
}

// TestMotifCensusStats verifies the census's stats: each class carries
// its own subquery's query stats, and the census batch reports
// aggregated batch stats.
func TestMotifCensusStats(t *testing.T) {
	g := GenerateGNP(60, 0.12, 99)
	sys := NewSystem(g, Options{Threads: 2})
	counts, err := sys.MotifCounts(4)
	if err != nil {
		t.Fatal(err)
	}
	withStats := 0
	for _, mc := range counts {
		if mc.Stats.Exec.Instructions > 0 {
			withStats++
		}
	}
	if withStats == 0 {
		t.Error("no motif class carried per-class query stats")
	}
	br, err := sys.CountPatterns(MotifPatterns(4), BatchOpts{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	bs := br.Stats
	if bs.Patterns != len(counts) {
		t.Fatalf("batch stats patterns = %+v, want %d members", bs, len(counts))
	}
	if bs.Instructions <= 0 {
		t.Error("census reported zero aggregate instructions")
	}
	if bs.SharedHits <= 0 {
		t.Errorf("4-motif census reported %d shared hits, want > 0 (conversion plans overlap)", bs.SharedHits)
	}
	for i, mc := range counts {
		if br.Results[i].Count != mc.Count {
			t.Errorf("%s: MotifCounts %d, census batch %d", mc.Pattern, mc.Count, br.Results[i].Count)
		}
	}
}

func TestBatchBudgetExceeded(t *testing.T) {
	g := GenerateGNP(60, 0.15, 5150)
	sys := NewSystem(g, Options{Threads: 2})
	pats := sharedHeavyPatterns(t)
	_, err := sys.CountPatterns(pats, BatchOpts{MaxInstructions: 1})
	if err != ErrBudgetExceeded {
		t.Fatalf("starved batch returned %v, want ErrBudgetExceeded", err)
	}
}
