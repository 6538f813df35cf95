package decomine

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestBatchPlanWaves: CountPatterns plans its batch in waves whose
// searches run side by side, one worker each, and the result does not
// depend on how many run at once. At 1, 2 and 4 threads, on the
// compile6-cold-gnp pattern list at its oracle size and on an induced
// 5-motif census over a hub-indexed R-MAT, the counts, every cached
// plan's description and cost, the batch stats (times aside) and the
// plan-cache counters are identical, and every plan-cache miss added
// its own entry: no plan request was searched twice. The census's second
// wave holds its skip replans.
func TestBatchPlanWaves(t *testing.T) {
	all := MotifPatterns(6)
	draw := rand.New(rand.NewSource(1))
	var compile6 []*Pattern
	for i := 0; i+16 <= len(all); i += 16 {
		compile6 = append(compile6, all[i+draw.Intn(16)])
	}
	rand.New(rand.NewSource(1)).Shuffle(len(compile6), func(i, j int) { compile6[i], compile6[j] = compile6[j], compile6[i] })

	type plan struct {
		desc string
		cost float64
	}
	type outcome struct {
		counts []int64
		stats  BatchStats
		cache  CacheStats
		plans  map[planReq]plan
	}
	for _, tc := range []struct {
		name  string
		graph func() *Graph
		pats  []*Pattern
		opts  BatchOpts
		// replans: the batch externalizes quotients, so its second wave
		// searches skip replans.
		replans bool
	}{
		{"compile6", func() *Graph { return GenerateGNP(32, 0.12, 1) }, compile6, BatchOpts{}, false},
		{"census5-induced", func() *Graph { return GenerateRMAT(6, 5, 1).BuildHubIndex(8) }, MotifPatterns(5), BatchOpts{Induced: true}, true},
	} {
		var want outcome
		for _, threads := range []int{1, 2, 4} {
			s := NewSystem(tc.graph(), Options{Threads: threads, Seed: 1})
			br, err := s.CountPatterns(tc.pats, tc.opts)
			s.Close()
			if err != nil {
				t.Fatalf("%s, %d threads: %v", tc.name, threads, err)
			}
			got := outcome{stats: br.Stats, cache: s.CacheStats(), plans: map[planReq]plan{}}
			got.stats.CompileTime, got.stats.ExecTime = 0, 0
			for _, r := range br.Results {
				got.counts = append(got.counts, r.Count)
			}
			for k, e := range s.planCache {
				if e.err != nil {
					t.Fatalf("%s, %d threads: cached search failure %v", tc.name, threads, e.err)
				}
				got.plans[k] = plan{e.plan.Desc, e.cost}
			}
			if got.cache.Misses != int64(len(s.planCache)) {
				t.Errorf("%s, %d threads: %d plan-cache misses for %d entries", tc.name, threads, got.cache.Misses, len(s.planCache))
			}
			if threads == 1 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got.counts, want.counts) {
				t.Errorf("%s, %d threads: counts %v, 1 thread %v", tc.name, threads, got.counts, want.counts)
			}
			if got.stats != want.stats {
				t.Errorf("%s, %d threads: batch stats %+v, 1 thread %+v", tc.name, threads, got.stats, want.stats)
			}
			if got.cache != want.cache {
				t.Errorf("%s, %d threads: cache stats %+v, 1 thread %+v", tc.name, threads, got.cache, want.cache)
			}
			if !reflect.DeepEqual(got.plans, want.plans) {
				t.Errorf("%s, %d threads: cached plans differ from 1 thread's", tc.name, threads)
			}
		}
		replans := 0
		for k := range want.plans {
			if k.skip != "" {
				replans++
			}
		}
		if want.cache.Misses < 2 || tc.replans != (replans > 0) {
			t.Errorf("%s: %d searches, %d of them skip replans", tc.name, want.cache.Misses, replans)
		}
	}
}
