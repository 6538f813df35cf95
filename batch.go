// Batched multi-pattern execution with cross-query subpattern sharing.
//
// A batch compiles every member query up front, in two plan waves whose
// plan-cache misses search side by side (planWave): the live needs, then
// the skip replans and the externalized quotients. It canonicalizes the
// decomposition subpatterns and shrinkage quotients that appear across
// the chosen plans into one intra-batch subcount table, and executes
// each distinct subquery exactly once. Quotients demanded by two or
// more plans (or already present in the external cache) are
// *externalized*: their enumeration loops are compiled out of the
// member plans (core.DecompSpec.SkipShrinkCodes) and their standalone
// counts — executed once, or served from the cache — are subtracted at
// extraction time (core.Plan.ExtractCount). Residual subqueries run
// concurrently on the System's steal-pool in dependency waves: a
// quotient has strictly fewer vertices than the pattern it shrinks, so
// scheduling by ascending vertex count resolves every externalized
// need before its dependents run.
package decomine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decomine/internal/core"
	"decomine/internal/decomp"
	"decomine/internal/obs"
	"decomine/internal/pattern"
)

var (
	obsBatches         = obs.Default.Counter("engine.batch.batches")
	obsBatchPatterns   = obs.Default.Counter("engine.batch.patterns")
	obsBatchSubqueries = obs.Default.Counter("engine.batch.subqueries")
	obsBatchSharedHits = obs.Default.Counter("engine.batch.shared_hits")
	obsBatchCacheHits  = obs.Default.Counter("engine.batch.cache_hits")
	obsBatchHarvested  = obs.Default.Counter("engine.batch.harvested")
)

// BatchCache is an external subcount store consulted before executing a
// batch subquery and populated with every count the batch derives —
// executed subquery results and harvested shrinkage-quotient counts
// alike. Keys are canonical pattern codes of connected patterns; values
// are unconstrained edge-induced copy counts — the same (code, flavor)
// discipline as the serving layer's epoch-keyed result cache, which
// adapts to this interface in internal/server. Implementations must be
// safe for concurrent use.
type BatchCache interface {
	Lookup(code string) (int64, bool)
	Store(code string, count int64)
}

// BatchOpts configures a CountPatterns run. The zero value counts
// edge-induced, runs unbudgeted, and uses the System's thread count for
// scheduling.
type BatchOpts struct {
	// Induced counts vertex-induced embeddings of every member (each
	// member must be connected); the batch executes the edge-induced
	// supergraph-class needs and composes through inclusion-exclusion.
	Induced bool
	// MaxInstructions, when > 0, is a joint VM instruction budget for
	// the whole batch (every subquery debits one shared grant);
	// exhaustion returns ErrBudgetExceeded.
	MaxInstructions int64
	// Fuel, when non-nil, overrides MaxInstructions with a caller-owned
	// shared budget counter (the server's per-tenant grant).
	Fuel *atomic.Int64
	// Deadline, when non-zero, is passed to every member subquery as its
	// QueryOpts.Deadline: expiry cancels the batch with ErrCanceled and
	// no partial results.
	Deadline time.Time
	// Cache, when non-nil, is the external subcount store (see
	// BatchCache).
	Cache BatchCache
	// Admit, when non-nil, is called once with the cost-model price of
	// the batch's residual execution set before anything runs, unless
	// that set is empty (the cache answered every member). It returns a
	// release callback (invoked when the batch finishes) or an error
	// that aborts the batch — the server's admission hook.
	Admit func(price float64) (release func(), err error)
	// Span, when non-nil, is the request trace span the batch runs
	// under: the batch records cache_lookup, plan, and per-dependency-
	// wave child spans, with each subquery's count span nested under its
	// wave (see QueryOpts.Span).
	Span *TraceSpan
}

// BatchStats summarizes one CountPatterns run.
type BatchStats struct {
	// Patterns is the number of member queries; Subqueries the number
	// of distinct subqueries actually executed.
	Patterns   int
	Subqueries int
	// SharedHits counts subquery demands served without a dedicated
	// execution: total references (member needs plus externalized
	// shrinkage resolutions) minus distinct demanded subqueries. It is
	// a deterministic function of the batch and the plans, independent
	// of thread count.
	SharedHits int64
	// CacheHits counts demanded subqueries served from BatchCache.
	CacheHits int64
	// Harvested counts distinct shrinkage-quotient subcounts collected
	// as execution by-products (stored into BatchCache when set).
	Harvested int64
	// Instructions is the total VM instructions executed across the
	// batch's subqueries.
	Instructions int64
	// EstimatedCost is the cost-model price of the execution set — what
	// Admit was offered.
	EstimatedCost float64
	// CompileTime is the summed plan-search time of the plan-cache
	// misses. The batch plans in waves whose searches run side by side,
	// so it exceeds the planning phase's wall-clock time whenever a
	// wave overlaps two searches. ExecTime is the wall-clock of the
	// execution waves.
	CompileTime time.Duration
	ExecTime    time.Duration
}

// BatchResult pairs the per-member results (input order; Count is
// vertex-induced under BatchOpts.Induced, edge-induced otherwise) with
// the batch-level stats. A member whose own edge-induced class was
// executed this batch carries that subquery's QueryStats.
type BatchResult struct {
	Results []*Result
	Stats   BatchStats
}

// batchMember is one resolved member query: its need codes (deduped, in
// recipe order) and the composition recipe.
type batchMember struct {
	pat      *Pattern
	own      pattern.Code
	needs    []pattern.Code
	needPats []*pattern.Pattern
	eval     func(counts map[pattern.Code]int64) (int64, error)
}

// rewriteKey keys the System's batch-member recipe cache.
type rewriteKey struct {
	code    pattern.Code
	induced bool
}

// batchMemberFor resolves p's batch recipe, memoizing by canonical code:
// isomorphic members share needs and composition (the conversion-plan
// enumeration behind induced recipes is expensive for 6-vertex classes,
// and batch applications resubmit the same pattern sets every epoch).
func (s *System) batchMemberFor(p *Pattern, induced bool) (*batchMember, error) {
	key := rewriteKey{code: p.p.Canonical(), induced: induced}
	s.mu.Lock()
	if m, ok := s.rewriteCache[key]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()
	m, err := newBatchMember(p, induced)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.rewriteCache == nil {
		s.rewriteCache = map[rewriteKey]*batchMember{}
	}
	if prev, ok := s.rewriteCache[key]; ok {
		m = prev // a concurrent resolve won; keep one canonical recipe
	} else {
		s.rewriteCache[key] = m
	}
	s.mu.Unlock()
	return m, nil
}

func newBatchMember(p *Pattern, induced bool) (*batchMember, error) {
	m := &batchMember{pat: p, own: p.p.Canonical()}
	rw, ok, err := decomp.RewriteQuery(p.p, induced)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Connected edge-induced: the member is its own (only) need.
		own := m.own
		str := p.String()
		m.needs = []pattern.Code{own}
		m.needPats = []*pattern.Pattern{p.p}
		m.eval = func(counts map[pattern.Code]int64) (int64, error) {
			c, found := counts[own]
			if !found {
				return 0, fmt.Errorf("decomine: batch is missing the count of %s", str)
			}
			return c, nil
		}
		return m, nil
	}
	for _, q := range rw.Needs {
		m.needs = append(m.needs, q.Canonical())
		m.needPats = append(m.needPats, q)
	}
	m.eval = rw.Eval
	return m, nil
}

// CountPatterns answers a whole set of counting queries as one batch
// with cross-query subpattern sharing (see the package comment at the
// top of this file): every distinct subquery across the members' chosen
// plans executes exactly once, shrinkage quotients demanded more than
// once are externalized and counted standalone, and the residual
// subqueries run concurrently on the System's pool. Results are
// returned in input order and are bit-identical to counting each member
// separately. Label constraints are not batched — use CountPattern with
// QueryOpts.Constraints for constrained queries.
func (s *System) CountPatterns(ps []*Pattern, o BatchOpts) (*BatchResult, error) {
	if len(ps) == 0 {
		return &BatchResult{}, nil
	}

	// Resolve every member to its rewrite recipe and collect the
	// distinct need set.
	members := make([]*batchMember, len(ps))
	needPat := map[pattern.Code]*pattern.Pattern{}
	var memberRefs int64
	for i, p := range ps {
		m, err := s.batchMemberFor(p, o.Induced)
		if err != nil {
			return nil, err
		}
		members[i] = m
		memberRefs += int64(len(m.needs))
		for j, c := range m.needs {
			if _, ok := needPat[c]; !ok {
				needPat[c] = m.needPats[j]
			}
		}
	}
	// Serve needs from the external cache before planning anything.
	cached := map[pattern.Code]int64{}
	lookup := func(c pattern.Code) (int64, bool) {
		if v, ok := cached[c]; ok {
			return v, true
		}
		if o.Cache == nil {
			return 0, false
		}
		v, ok := o.Cache.Lookup(string(c))
		if ok {
			cached[c] = v
		}
		return v, ok
	}
	table := map[pattern.Code]int64{}
	var cacheHits int64
	needCodes := sortedCodes(needPat)
	var liveNeeds []pattern.Code
	cacheSpan := o.Span.StartChild("cache_lookup")
	for _, c := range needCodes {
		if v, ok := lookup(c); ok {
			table[c] = v
			cacheHits++
			continue
		}
		liveNeeds = append(liveNeeds, c)
	}
	cacheSpan.SetAttr("needs", int64(len(needCodes)))
	cacheSpan.SetAttr("hits", cacheHits)
	cacheSpan.End()

	// Plan every live need as one wave and tally shrinkage-quotient
	// demand across the batch.
	planSpan := o.Span.StartChild("plan")
	liveReqs := make([]planReq, len(liveNeeds))
	for i, c := range liveNeeds {
		liveReqs[i] = planReq{pat: needPat[c]}
	}
	entries, compileTime, err := s.planWave(liveReqs)
	if err != nil {
		planSpan.EndErr(err)
		return nil, err
	}
	entry := map[pattern.Code]*planEntry{}
	refs := map[pattern.Code]int64{}
	quotPat := map[pattern.Code]*pattern.Pattern{}
	for i, c := range liveNeeds {
		e := entries[i]
		entry[c] = e
		for _, sh := range e.plan.Shrink {
			refs[sh.Code]++
			if _, ok := quotPat[sh.Code]; !ok {
				quotPat[sh.Code] = sh.Pat
			}
		}
	}

	// Externalize a quotient when its standalone count pays for itself:
	// it is demanded at least twice across the batch (counting an
	// appearance in the need set itself), or the cache already has it.
	ext := map[pattern.Code]bool{}
	for c, n := range refs {
		demand := n
		if _, isNeed := needPat[c]; isNeed {
			demand++
		}
		if _, isCached := lookup(c); demand >= 2 || isCached {
			ext[c] = true
		}
	}

	// The second wave. Replan the needs whose plan enumerates an
	// externalized quotient with that quotient set skipped: the smaller
	// skip-plan ASTs rank cheaper, so the search naturally favors
	// decompositions that lean on the shared quotients. Plan the
	// externalized quotients not already resolved (from the cache, or
	// as a need themselves) alongside.
	req := map[pattern.Code]planReq{}
	var waveCodes []pattern.Code
	var waveReqs []planReq
	if len(ext) > 0 {
		skip := skipKey(ext)
		for _, c := range liveNeeds {
			for _, sh := range entry[c].plan.Shrink {
				if ext[sh.Code] {
					req[c] = planReq{pat: needPat[c], skip: skip}
					waveCodes = append(waveCodes, c)
					waveReqs = append(waveReqs, req[c])
					break
				}
			}
		}
	}
	// The execution set: live needs plus externalized quotients not
	// already resolved.
	allPat := map[pattern.Code]*pattern.Pattern{}
	for c, p := range needPat {
		allPat[c] = p
	}
	execCodes := append([]pattern.Code(nil), liveNeeds...)
	for _, c := range sortedCodes(quotPat) {
		if !ext[c] {
			continue
		}
		if _, ok := allPat[c]; ok {
			continue
		}
		allPat[c] = quotPat[c]
		if v, ok := lookup(c); ok {
			table[c] = v
			cacheHits++
			continue
		}
		waveCodes = append(waveCodes, c)
		waveReqs = append(waveReqs, planReq{pat: quotPat[c]})
		execCodes = append(execCodes, c)
	}
	entries, waveTime, err := s.planWave(waveReqs)
	if err != nil {
		planSpan.EndErr(err)
		return nil, err
	}
	compileTime += waveTime
	for i, c := range waveCodes {
		entry[c] = entries[i]
	}
	planSpan.SetAttr("subqueries", int64(len(execCodes)))
	planSpan.SetAttr("externalized", int64(len(ext)))
	planSpan.End()

	// Price the residual work and admit the whole batch at once. A
	// batch the cache answers entirely executes nothing and bypasses
	// admission.
	var price float64
	for _, c := range execCodes {
		price += entry[c].cost
	}
	if o.Admit != nil && len(execCodes) > 0 {
		release, err := o.Admit(price)
		if err != nil {
			return nil, err
		}
		defer release()
	}

	// Execute in dependency waves (ascending vertex count), concurrent
	// within each wave on the shared pool.
	fuel := (&QueryOpts{MaxInstructions: o.MaxInstructions, Fuel: o.Fuel}).fuelCounter()
	var (
		mu           sync.Mutex
		firstErr     error
		cancel       atomic.Bool
		instructions int64
		harvested    = map[pattern.Code]int64{}
		subStats     = map[pattern.Code]*QueryStats{}
	)
	resolve := func(c pattern.Code) (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		v, ok := table[c]
		return v, ok
	}
	harvest := func(plan *core.Plan, globals []int64) {
		sub := plan.SubCounts(globals)
		if len(sub) == 0 {
			return
		}
		mu.Lock()
		for c, v := range sub {
			if _, ok := harvested[c]; !ok {
				harvested[c] = v
			}
		}
		mu.Unlock()
	}
	par := s.threads()
	execStart := time.Now()
	for wi, wave := range batchWaves(execCodes, allPat) {
		waveSpan := o.Span.StartChild(fmt.Sprintf("wave[%d]", wi))
		waveSpan.SetAttr("subqueries", int64(len(wave)))
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for _, c := range wave {
			c := c
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				if cancel.Load() {
					return
				}
				r, ok := req[c]
				if !ok {
					r = planReq{pat: allPat[c]}
				}
				qo := QueryOpts{Fuel: fuel, Deadline: o.Deadline, Span: waveSpan}
				res, err := s.countPattern(r, qo, queryRun{cancel: &cancel, resolve: resolve, harvest: harvest})
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					// A sibling's failure cancels the rest of the batch;
					// prefer the originating error over cascade ErrCanceled.
					if firstErr == nil || (firstErr == ErrCanceled && err != ErrCanceled) {
						firstErr = err
					}
					cancel.Store(true)
					return
				}
				table[c] = res.Count
				instructions += res.Stats.Exec.Instructions
				subStats[c] = &res.Stats
			}()
		}
		wg.Wait()
		if firstErr == nil && cancel.Load() {
			// The deadline can fire after a subquery's run finished but
			// before its timer stopped: the flag is then set with no
			// error recorded, and siblings that saw it skipped their runs.
			firstErr = ErrCanceled
		}
		if firstErr != nil {
			waveSpan.EndErr(firstErr)
			return nil, firstErr
		}
		waveSpan.End()
	}
	execTime := time.Since(execStart)

	// Externalized-resolution references, for the shared-hit ledger:
	// every External entry of an executed plan consumed one table entry
	// instead of running its own enumeration loops.
	var externalRefs int64
	for _, c := range execCodes {
		externalRefs += int64(len(entry[c].plan.External))
	}

	// Publish derived counts to the external cache: executed subqueries
	// and harvested quotient by-products.
	if o.Cache != nil {
		for _, c := range execCodes {
			o.Cache.Store(string(c), table[c])
		}
		for c, v := range harvested {
			if _, ok := table[c]; !ok {
				o.Cache.Store(string(c), v)
			}
		}
	}

	// Compose the member answers from the subcount table.
	out := &BatchResult{Results: make([]*Result, len(ps))}
	for i, m := range members {
		c, err := m.eval(table)
		if err != nil {
			return nil, err
		}
		r := &Result{Count: c}
		if st := subStats[m.own]; st != nil {
			r.Stats = *st
		}
		out.Results[i] = r
	}
	bs := &out.Stats
	bs.Patterns = len(ps)
	bs.Subqueries = len(execCodes)
	bs.SharedHits = memberRefs + externalRefs - int64(len(allPat))
	bs.CacheHits = cacheHits
	bs.Harvested = int64(len(harvested))
	bs.Instructions = instructions
	bs.EstimatedCost = price
	bs.CompileTime = compileTime
	bs.ExecTime = execTime
	obsBatches.Inc()
	obsBatchPatterns.Add(int64(bs.Patterns))
	obsBatchSubqueries.Add(int64(bs.Subqueries))
	obsBatchSharedHits.Add(bs.SharedHits)
	obsBatchCacheHits.Add(bs.CacheHits)
	obsBatchHarvested.Add(bs.Harvested)
	return out, nil
}

// planWave plans reqs as one wave: it looks each request up in the plan
// cache once, in order, then searches the misses side by side through
// core.Wave, at most threads() at a time. It returns the entries in
// request order, the summed search time of the misses (which exceeds
// the wave's wall-clock time when searches overlap), and the first
// error in request order.
func (s *System) planWave(reqs []planReq) ([]*planEntry, time.Duration, error) {
	entries := make([]*planEntry, len(reqs))
	keys := make([]planReq, len(reqs))
	var misses []int
	for i, r := range reqs {
		keys[i] = r.key()
		if entries[i] = s.cachedPlan(keys[i]); entries[i] == nil {
			misses = append(misses, i)
		}
	}
	core.Wave(len(misses), s.threads(), func(k, workers int) {
		i := misses[k]
		entries[i] = s.searchPlan(reqs[i], keys[i], workers)
	})
	var searchTime time.Duration
	for _, i := range misses {
		searchTime += entries[i].stats.EnumerateTime + entries[i].stats.RankTime
	}
	for _, e := range entries {
		if e.err != nil {
			return nil, 0, e.err
		}
	}
	return entries, searchTime, nil
}

// sortedCodes returns the map's keys in canonical-code order.
func sortedCodes(m map[pattern.Code]*pattern.Pattern) []pattern.Code {
	out := make([]pattern.Code, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// batchWaves groups the execution set into dependency waves by
// ascending vertex count: a skip-compiled plan's externalized quotients
// always have strictly fewer vertices than the plan's pattern, so every
// resolution target completes in an earlier wave. Order within a wave
// is canonical-code order (stable scheduling; results are
// order-independent anyway).
func batchWaves(codes []pattern.Code, pats map[pattern.Code]*pattern.Pattern) [][]pattern.Code {
	sorted := append([]pattern.Code(nil), codes...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := pats[sorted[i]].NumVertices(), pats[sorted[j]].NumVertices()
		if a != b {
			return a < b
		}
		return sorted[i] < sorted[j]
	})
	var waves [][]pattern.Code
	for i := 0; i < len(sorted); {
		j := i
		v := pats[sorted[i]].NumVertices()
		for j < len(sorted) && pats[sorted[j]].NumVertices() == v {
			j++
		}
		waves = append(waves, sorted[i:j])
		i = j
	}
	return waves
}
