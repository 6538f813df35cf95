package decomine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/cost"
	"decomine/internal/engine"
	"decomine/internal/obs"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

// Plan-cache feeds into the shared metrics registry (also mirrored in
// per-System counters; see CacheStats).
var (
	obsCacheHits     = obs.Default.Counter("plancache.hits")
	obsCacheMisses   = obs.Default.Counter("plancache.misses")
	obsCacheNegative = obs.Default.Counter("plancache.negative")
)

// CostModelKind selects the cost model used by the algorithm search
// (paper §6).
type CostModelKind string

const (
	// CostApproxMining is the approximate-mining based model (the
	// paper's default and most accurate).
	CostApproxMining CostModelKind = "approx-mining"
	// CostLocality is the locality-aware random-graph model.
	CostLocality CostModelKind = "locality"
	// CostAutoMine is AutoMine's uniform random-graph model.
	CostAutoMine CostModelKind = "automine"
)

// Options configures a System.
type Options struct {
	// Threads used by plan execution and by the algorithm search's
	// candidate preparation; 0 means GOMAXPROCS.
	Threads int
	// CostModel picks the plan-ranking model (default CostApproxMining).
	CostModel CostModelKind
	// DisableDecomposition restricts the compiler to direct
	// (AutoMine-style) plans.
	DisableDecomposition bool
	// DisableCountLastLoop turns off the last-loop counting optimization
	// (used to model the AutoMine baseline, which lacks GraphPi's
	// mathematical counting optimization).
	DisableCountLastLoop bool
	// MaxCandidates caps the number of candidate specs considered per
	// pattern, in spec order; a twin spec, skipped because an earlier
	// one generates the same plan, still counts.
	MaxCandidates int
	// ProfileSampleEdges / ProfileTrials configure the approximate-mining
	// profiler (defaults 200k edges, 30k walks per pattern shape).
	ProfileSampleEdges int
	ProfileTrials      int
	// Seed fixes all randomized choices.
	Seed int64
	// Profile arms the in-VM sampling profiler for every plan
	// execution: each query's Result.Stats.Exec.Profile then carries its
	// wall-time attribution by (opcode × loop depth × kernel path), and
	// runs accumulate into the process-wide profile served at
	// /debug/profile. Off by default; profiling adds a clock read per
	// sampling window and never changes results or instruction counts.
	Profile bool
	// SharedPool, when non-nil, makes this System execute plans on a
	// caller-owned worker pool instead of starting its own, so several
	// Systems (one per loaded graph in a server) share one set of worker
	// goroutines. System.Close never closes a shared pool — the owner
	// does, via Pool.Close. Ignored for sequential configurations
	// (Threads == 1); when set, the pool's size overrides Threads for
	// parallel runs.
	SharedPool *Pool
}

// Pool is a work-stealing worker pool shareable by several Systems (see
// Options.SharedPool). The zero value is not usable; create one with
// NewPool and Close it when every sharing System is done.
type Pool struct {
	p *engine.Pool
}

// NewPool starts a pool with n workers (GOMAXPROCS when n <= 0).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{p: engine.NewPool(n)}
}

// Size returns the pool's worker count.
func (p *Pool) Size() int { return p.p.Size() }

// Close stops the pool's workers, blocking until in-flight work drains.
func (p *Pool) Close() { p.p.Close() }

// ExecutionProfile is the sampling profiler's attribution record; see
// Options.Profile and ExecStats.Profile.
type ExecutionProfile = obs.Profile

// System binds a graph to compilation options and caches compiled plans
// and the profiling table. A System is safe for concurrent use: the plan
// cache is shared, and parallel plan executions from any number of
// goroutines share one persistent worker pool. Call Close when done with
// a System to stop the pool's worker goroutines.
type System struct {
	graph *Graph
	opts  Options

	mu        sync.Mutex
	profile   *sampling.Profile
	model     cost.Model
	planCache map[planReq]*planEntry
	// rewriteCache memoizes batch-member rewrite recipes by canonical
	// code (ConversionPlan enumeration is expensive for large patterns;
	// see batch.go). Lazily initialized under mu.
	rewriteCache map[rewriteKey]*batchMember

	// pool is the persistent work-stealing worker pool shared by every
	// plan execution this System starts; built lazily on the first
	// parallel run, drained by Close.
	pool       *engine.Pool
	poolClosed bool
	// prepCache maps a plan's lowered bytecode to its reusable execution
	// state (arena plan, split analysis, recycled register frames).
	prepCache map[*ast.Lowered]*engine.Prepared

	// ProfileTime records how long the approximate-mining profile's
	// one-off edge sampling took. The profile's per-shape estimates are
	// made lazily, inside the searches that first need them, and count
	// as compile time.
	ProfileTime time.Duration

	// Plan-cache counters (see CacheStats). Kept as atomics so the hot
	// cache-hit path does not lengthen its critical section.
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	cacheNegativeHit atomic.Int64
}

// planReq is one algorithm-search request: the asker's pattern plus
// everything else core.Search reads from the caller (the System's
// Options supply the rest). planFor derives both the plan-cache key and
// the search options from this one value, so a cached entry is only
// ever served to a request that would have run the same search.
type planReq struct {
	// pat is the asker's pattern, which the search runs on. key replaces
	// it by its canonical code and, where the plan's vertex numbering
	// reaches the caller, by its spelling.
	pat      *pattern.Pattern
	code     pattern.Code
	spelling string
	mode     core.Mode
	induced  bool
	// cons encodes the label constraints (see consKey); "" means none.
	cons string
	// skip encodes the externalized shrinkage quotients — those a batch
	// counts once, standalone, and subtracts at extraction (see
	// skipKey); "" means none.
	skip string
}

// key is the request's plan-cache identity. Isomorphic spellings share
// one entry, except for constrained plans (the constraints name the
// asker's vertices) and emit plans (partial embeddings map into the
// asker's vertices): those key by the full spelling, edges and labels.
func (r planReq) key() planReq {
	r.code = r.pat.Canonical()
	if r.cons != "" || r.mode == core.ModeEmit {
		r.spelling = r.pat.String()
	}
	r.pat = nil
	return r
}

// consKey encodes label constraints for a planReq as JSON; no
// constraints encode to "".
func consKey(cons []LabelConstraint) string {
	if len(cons) == 0 {
		return ""
	}
	b, _ := json.Marshal(cons)
	return string(b)
}

// skipKey encodes an externalized quotient set for a planReq: the codes
// in sorted order, each behind its uvarint length (canonical codes are
// binary strings).
func skipKey(ext map[pattern.Code]bool) string {
	codes := make([]string, 0, len(ext))
	for c := range ext {
		codes = append(codes, string(c))
	}
	sort.Strings(codes)
	var b []byte
	for _, c := range codes {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	return string(b)
}

// searchOptions builds the search options of r: the System's Options
// plus r's mode, induced flag, constraints and externalized quotients.
func (s *System) searchOptions(r planReq) core.SearchOptions {
	so := core.SearchOptions{
		Model:                s.Model(),
		Mode:                 r.mode,
		Induced:              r.induced,
		DisableDecomposition: s.opts.DisableDecomposition,
		DisableCountLastLoop: s.opts.DisableCountLastLoop,
		MaxCandidates:        s.opts.MaxCandidates,
	}
	if r.cons != "" {
		var cons []LabelConstraint
		json.Unmarshal([]byte(r.cons), &cons) // consKey's own output
		so.Constraints = toCoreConstraints(cons)
	}
	if r.skip != "" {
		so.SkipShrinkCodes = map[pattern.Code]bool{}
		for rest := r.skip; rest != ""; {
			n, w := binary.Uvarint([]byte(rest))
			so.SkipShrinkCodes[pattern.Code(rest[w:w+int(n)])] = true
			rest = rest[w+int(n):]
		}
	}
	return so
}

// planEntry caches the outcome of one algorithm search — including
// failures, so patterns with no valid plan don't re-run the full
// candidate search on every repeated call (negative caching).
type planEntry struct {
	plan  *core.Plan
	cost  float64
	cands int
	stats core.SearchStats
	err   error
}

// NewSystem creates a mining system over g.
func NewSystem(g *Graph, opts Options) *System {
	if opts.CostModel == "" {
		opts.CostModel = CostApproxMining
	}
	return &System{graph: g, opts: opts, planCache: map[planReq]*planEntry{}}
}

// Graph returns the bound input graph.
func (s *System) Graph() *Graph { return s.graph }

// Close stops the System's persistent worker pool (if one was started),
// blocking until in-flight work drains. It is idempotent; runs started
// after Close still work but fall back to per-run worker goroutines.
func (s *System) Close() {
	s.mu.Lock()
	pool := s.pool
	s.pool = nil
	s.poolClosed = true
	s.mu.Unlock()
	if pool != nil {
		pool.Close()
	}
}

// threads is the System's thread count: Options.Threads, else
// GOMAXPROCS. It sizes the worker pool and caps the concurrent
// subqueries of a batch and of an FSM level.
func (s *System) threads() int {
	if s.opts.Threads > 0 {
		return s.opts.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// enginePool returns the shared worker pool, starting it on first use.
// Sequential configurations (Threads == 1) never start a pool.
func (s *System) enginePool() *engine.Pool {
	n := s.threads()
	if n == 1 {
		return nil
	}
	if s.opts.SharedPool != nil {
		return s.opts.SharedPool.p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pool == nil && !s.poolClosed {
		s.pool = engine.NewPool(n)
	}
	return s.pool
}

// prepared returns (building and caching on first use) the reusable
// execution state for a plan's bytecode, so repeated runs of a cached
// plan skip arena planning and recycle worker register frames.
func (s *System) prepared(code *ast.Lowered) *engine.Prepared {
	if code == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prepCache == nil {
		s.prepCache = map[*ast.Lowered]*engine.Prepared{}
	}
	p, ok := s.prepCache[code]
	if !ok {
		p = engine.Prepare(s.graph.g, code)
		s.prepCache[code] = p
	}
	return p
}

// Model returns (building lazily) the configured cost model. The
// approximate-mining model triggers one-off edge-sampling profiling.
func (s *System) Model() cost.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.modelLocked()
}

func (s *System) modelLocked() cost.Model {
	if s.model != nil {
		return s.model
	}
	st := cost.StatsOf(s.graph.g)
	switch s.opts.CostModel {
	case CostAutoMine:
		s.model = cost.NewAutoMine(st)
	case CostLocality:
		s.model = cost.NewLocality(st, 0.25)
	default:
		start := time.Now()
		s.profile = sampling.BuildProfile(s.graph.g, sampling.Options{
			SampleEdges: s.opts.ProfileSampleEdges,
			Trials:      s.opts.ProfileTrials,
			Seed:        s.opts.Seed + 1000,
		})
		s.ProfileTime = time.Since(start)
		s.model = cost.NewApproxMining(st, s.profile)
	}
	return s.model
}

// noteCacheHit records a plan-cache lookup served from cache; negative
// entries (remembered search failures) count separately.
func (s *System) noteCacheHit(e *planEntry) {
	if e.err != nil {
		s.cacheNegativeHit.Add(1)
		obsCacheNegative.Inc()
		return
	}
	s.cacheHits.Add(1)
	obsCacheHits.Inc()
}

// noteCacheMiss records a lookup that ran the algorithm search.
func (s *System) noteCacheMiss() {
	s.cacheMisses.Add(1)
	obsCacheMisses.Inc()
}

// CacheStats reports plan-cache behavior since the System was created.
// The cache holds one entry per plan request (see planReq): canonical
// pattern code, mode, vertex-induced flag, label constraints and
// externalized quotients, plus the asker's spelling for constrained and
// emission plans. Every compiled-plan lookup — the counting APIs
// (including each plan a vertex-induced count or batch runs),
// EstimateCost, Explain and the emission planner — moves exactly one of
// the three counters: Hits (cached plan served), NegativeHits (cached
// search failure served), or Misses (the algorithm search ran).
type CacheStats struct {
	Hits         int64
	Misses       int64
	NegativeHits int64
}

// CacheStats returns the System's plan-cache counters. Safe for
// concurrent use.
func (s *System) CacheStats() CacheStats {
	return CacheStats{
		Hits:         s.cacheHits.Load(),
		Misses:       s.cacheMisses.Load(),
		NegativeHits: s.cacheNegativeHit.Load(),
	}
}

// planFor returns the cached search outcome for r, running the
// algorithm search at most once per key (see planReq.key) — whether it
// succeeded or failed. hit reports whether the entry was served from
// the cache.
func (s *System) planFor(r planReq) (e *planEntry, hit bool, err error) {
	key := r.key()
	if e := s.cachedPlan(key); e != nil {
		return e, true, e.err
	}
	e = s.searchPlan(r, key, s.opts.Threads)
	return e, false, e.err
}

// cachedPlan looks key up in the plan cache and moves exactly one of
// the CacheStats counters: a hit (or negative hit) when the entry is
// there, a miss when it is not and the caller will search.
func (s *System) cachedPlan(key planReq) *planEntry {
	s.mu.Lock()
	e := s.planCache[key]
	s.mu.Unlock()
	if e != nil {
		s.noteCacheHit(e)
		return e
	}
	s.noteCacheMiss()
	return nil
}

// searchPlan runs the algorithm search for r on workers goroutines
// (SearchOptions.Workers) and caches its outcome under key.
func (s *System) searchPlan(r planReq, key planReq, workers int) *planEntry {
	var stats core.SearchStats
	sopts := s.searchOptions(r)
	sopts.Stats = &stats
	sopts.Workers = workers
	best, cands, err := core.Search(r.pat, sopts)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.planCache[key]; ok {
		// A concurrent search for the same key finished first; keep its
		// entry so every caller sees one canonical plan.
		return e
	}
	e := &planEntry{err: err, stats: stats}
	if err == nil {
		e.plan, e.cost, e.cands = best.Plan, best.Cost, len(cands)
	}
	s.planCache[key] = e
	return e
}

// ExecStats reports bytecode execution counters from an engine run.
type ExecStats struct {
	// Instructions is the total number of bytecode instructions executed.
	Instructions int64
	// PerOp maps opcode mnemonics (e.g. "set", "loop.next") to execution
	// counts; zero-count opcodes are omitted.
	PerOp map[string]int64
	// Kernels maps set-kernel path names ("merge", "gallop", "bitmap",
	// "bitmap-count") to the number of intersect/subtract dispatches
	// each served; zero-count paths are omitted. The bitmap paths are
	// nonzero only when the graph carries a hub bitmap index.
	Kernels map[string]int64
	// KernelElems maps the same kernel paths to the elements their
	// dispatches processed, the work measure the cost models price: both
	// operands of a merge, the probes of a gallop, the filtered array of
	// a bitmap filter, the row words of a bitmap×bitmap count.
	// Zero-element paths are omitted. Filled on every run, profiled or
	// not.
	KernelElems map[string]int64
	// Steals counts loop ranges taken from another worker's deque by the
	// work-stealing scheduler, and Splits counts depth-1 subranges shed
	// by workers executing heavy outer iterations. Zero for sequential
	// runs.
	Steals int64
	Splits int64
	// Profile is the run's sampling-profiler attribution, present only
	// when the System runs with Options.Profile.
	Profile *ExecutionProfile
}

// exec is the System's one entry into the engine. run carries the
// per-run wiring its caller chose (consumer, cancel, progress, fuel,
// pins, a Threads: 1 override); exec adds what every execution on this
// System shares — thread count, the lowered bytecode, the persistent
// pool, the profiler switch — and, when reuse is set, the
// program's cached execution state. reuse is for plan-cache residents;
// a one-shot pinned plan would only grow prepCache.
// The returned duration is how long assembling that state took: the
// bytecode lowering + arena planning on a plan's first run, ~0 after.
func (s *System) exec(p *core.Plan, reuse bool, run engine.Options) (*engine.Result, time.Duration, error) {
	setupStart := time.Now()
	run.Code = p.Lowered()
	if run.Threads == 0 {
		run.Threads = s.opts.Threads
	}
	if run.Threads != 1 {
		run.Pool = s.enginePool()
	}
	if reuse {
		run.Prepared = s.prepared(run.Code)
	}
	run.Profile = s.opts.Profile
	setup := time.Since(setupStart)
	res, err := engine.Run(s.graph.g, run.Code.Prog, run)
	return res, setup, err
}

// GetPatternCount returns the number of edge-induced embeddings of p —
// the paper's get_pattern_count API. It is CountPattern without options
// or per-run stats.
func (s *System) GetPatternCount(p *Pattern) (int64, error) {
	r, err := s.CountPattern(p, QueryOpts{})
	if err != nil {
		return 0, err
	}
	return r.Count, nil
}

// GetPatternCountVertexInduced returns the number of vertex-induced
// embeddings of p. The cost model arbitrates between direct
// vertex-induced enumeration and the indirect method (edge-induced
// counts of p's supergraph classes — computable with decomposition —
// combined by inclusion-exclusion), per paper §2.2. Each plan it runs
// is a query like CountPattern's: listed at /debug/queries while it
// runs and eligible for the slow-query log.
func (s *System) GetPatternCountVertexInduced(p *Pattern) (int64, error) {
	// Option 1: direct. Both options' searches go through the plan
	// cache, failures included.
	direct := planReq{pat: p.p, induced: true}
	de, dhit, errDirect := s.planFor(direct)
	// Option 2: indirect, through the memoized batch recipe: the
	// edge-induced counts of p's supergraph classes, composed by
	// inclusion-exclusion.
	var indirectCost float64
	var indirect []queryRun
	m, errIndirect := s.batchMemberFor(p, true)
	if errIndirect == nil {
		for _, q := range m.needPats {
			e, hit, err := s.planFor(planReq{pat: q})
			if err != nil {
				errIndirect = err
				break
			}
			indirectCost += e.cost
			indirect = append(indirect, queryRun{entry: e, hit: hit})
		}
	}
	switch {
	case errDirect != nil && errIndirect != nil:
		return 0, fmt.Errorf("decomine: no vertex-induced plan for %s: %v / %v", p, errDirect, errIndirect)
	case errIndirect != nil || (errDirect == nil && de.cost <= indirectCost):
		r, err := s.countPattern(direct, QueryOpts{}, queryRun{entry: de, hit: dhit})
		if err != nil {
			return 0, err
		}
		return r.Count, nil
	}
	ei := make(map[pattern.Code]int64, len(m.needs))
	for i, q := range m.needPats {
		r, err := s.countPattern(planReq{pat: q}, QueryOpts{}, indirect[i])
		if err != nil {
			return 0, err
		}
		ei[m.needs[i]] = r.Count
	}
	return m.eval(ei)
}

// CountWithConstraints counts embeddings of p whose vertex labels
// satisfy every group constraint (paper §7.5, §8.6). The compiler
// chooses a cutting set that resolves each sub-constraint on partially
// materialized embeddings, falling back to a direct plan when no such
// cutting set exists. It is CountPattern with QueryOpts.Constraints.
func (s *System) CountWithConstraints(p *Pattern, cons []LabelConstraint) (int64, error) {
	r, err := s.CountPattern(p, QueryOpts{Constraints: cons})
	if err != nil {
		return 0, err
	}
	return r.Count, nil
}

// Explain returns a human-readable description of the algorithm the
// compiler selected for p: the decomposition choice, matching orders,
// estimated cost, the optimized pseudo-code and the lowered bytecode.
// It shares the plan cache with the counting APIs, so explaining a
// pattern that was already mined (or mining one that was explained)
// performs no additional search.
func (s *System) Explain(p *Pattern) (string, error) {
	e, _, err := s.planFor(planReq{pat: p.p})
	if err != nil {
		return "", err
	}
	aux := core.PlanAuxSummary(e.plan)
	if aux != "" {
		aux = "auxiliary graphs:\n" + aux + "\n"
	}
	return fmt.Sprintf("pattern: %s\nchosen: %s\nestimated cost: %.3g (best of %d candidates, model %s)\n\n%s\n%sbytecode:\n%s",
		p, e.plan.Desc, e.cost, e.cands, s.Model().Name(),
		core.PlanPseudocode(e.plan), aux, core.PlanDisassembly(e.plan)), nil
}
