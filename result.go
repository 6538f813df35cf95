package decomine

import (
	"fmt"
	"sync/atomic"
	"time"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/engine"
	"decomine/internal/obs"
	"decomine/internal/pattern"
)

// PhaseSpan is one timed phase of a query's lifecycle: "enumerate"
// (candidate generation + middle-end optimization), "rank" (cost-model
// evaluation and the auxiliary-table arbitration of the candidates that
// can still win), "lower" (bytecode lowering + arena planning; ~0 for a
// cached plan), and "execute".
type PhaseSpan struct {
	Phase    string
	Duration time.Duration
	// Candidates is the number of distinct candidate plans ranked
	// (compile-side phases only).
	Candidates int
}

// QueryStats is the per-run observability record attached to a Result.
// Its fields belong to exactly one run: concurrent queries on a shared
// System each get their own.
type QueryStats struct {
	// Exec carries this run's bytecode execution counters (instructions,
	// per-opcode counts, steals, splits).
	Exec ExecStats
	// WorkPerThread is this run's per-worker executed instruction
	// count; max/mean of it is the load-balance signal.
	WorkPerThread []int64
	// Phases are the timed lifecycle spans, in execution order. Compile
	// phases are present only when this query ran the algorithm search
	// (i.e. PlanCacheHit is false).
	Phases []PhaseSpan
	// CompileTime is enumerate+rank time (0 on a plan-cache hit) and
	// ExecTime the engine wall time — the Figure 18 split.
	CompileTime time.Duration
	ExecTime    time.Duration
	// PlanCacheHit reports that the plan was served from the cache.
	PlanCacheHit bool
}

// Result is a counting query's outcome plus its per-run stats.
type Result struct {
	// Count is the number of edge-induced embeddings.
	Count int64
	Stats QueryStats
}

// execStatsFromResult converts an engine result's counters to the
// public ExecStats form.
func execStatsFromResult(res *engine.Result) ExecStats {
	st := ExecStats{PerOp: map[string]int64{}}
	for op, c := range res.OpCounts {
		if c != 0 {
			st.PerOp[ast.OpCode(op).String()] = c
			st.Instructions += c
		}
	}
	st.Kernels = kernelMap(res.KernelCounts)
	st.KernelElems = kernelMap(res.KernelElems)
	st.Steals = res.Steals
	st.Splits = res.Splits
	st.Profile = res.Profile
	return st
}

// kernelMap names per-kernel-path counters, omitting zeros; nil when all
// are zero.
func kernelMap(per []int64) map[string]int64 {
	var m map[string]int64
	for k, c := range per {
		if c != 0 {
			if m == nil {
				m = map[string]int64{}
			}
			m[engine.KernelNames[k]] = c
		}
	}
	return m
}

// CountPattern returns the number of edge-induced embeddings of p under
// the options o (label constraints, instruction budget, deadline, trace
// span), together with this run's stats: plan-cache outcome, compile
// phase spans (on a miss), lowering time, execution time, and the
// engine's instruction/steal counters. Every single-pattern count in the
// library goes through it and shares one plan cache. While the query
// runs it is visible (with live progress) at /debug/queries; queries
// slower than obs.SetSlowQueryThreshold land in the slow-query log. A
// drained instruction budget returns ErrBudgetExceeded, an expired
// deadline ErrCanceled.
func (s *System) CountPattern(p *Pattern, o QueryOpts) (*Result, error) {
	return s.countPattern(o.req(p), o, queryRun{})
}

// queryRun is the in-package wiring of one countPattern run beyond its
// QueryOpts. The zero value looks the plan up and allocates its own
// cancel flag and progress tracker.
type queryRun struct {
	// entry, when non-nil, is the request's plan entry as the caller
	// already resolved it (hit: from the cache), so the run does not
	// look it up, and move the plan-cache counters, a second time.
	entry *planEntry
	hit   bool
	// cancel aborts the execution phase (shared by a batch's
	// subqueries); tracker receives root-range completion accounting
	// (a QueryHandle's progress).
	cancel  *atomic.Bool
	tracker *engine.ProgressTracker
	// resolve supplies standalone counts for the plan's externalized
	// shrinkages at extraction time (batch skip plans).
	resolve func(pattern.Code) (int64, bool)
	// harvest, when non-nil, receives the executed plan and its raw
	// globals after a successful run, letting the batch layer collect
	// shrinkage-quotient subcounts as a by-product.
	harvest func(plan *core.Plan, globals []int64)
}

// countPattern is the one execution path of every single-plan count:
// CountPattern and CountPatternAsync, each plan of a vertex-induced
// count, and every batch subquery. The query is cancelable from
// /debug/queries (qo.Deadline arms the same flag), visible there with
// live progress while it runs, traced under qo.Span and eligible for
// the slow-query log.
func (s *System) countPattern(r planReq, qo QueryOpts, run queryRun) (*Result, error) {
	name := "count:" + r.pat.String()
	if r.induced {
		name = "count-vi:" + r.pat.String()
	}
	begin := time.Now()
	tracker, cancel := run.tracker, run.cancel
	if tracker == nil {
		tracker = &engine.ProgressTracker{}
	}
	if cancel == nil {
		cancel = new(atomic.Bool)
	}
	defer armDeadline(cancel, qo.Deadline)()
	fuel := qo.fuelCounter()
	// span is this query's node in the request trace tree (nil — one
	// pointer check per call site — when the caller isn't tracing).
	span := qo.Span.StartChild(name)
	meta := obs.QueryMeta{Tenant: qo.Span.Tenant(), TraceID: qo.Span.TraceID(), QueueWait: qo.Span.QueueWait()}
	queryID, unregister := obs.RegisterQueryMeta(name, meta, tracker.Fraction, func() { cancel.Store(true) })
	defer unregister()
	e, hit := run.entry, run.hit
	if e == nil {
		var err error
		if e, hit, err = s.planFor(r); err != nil {
			span.EndErr(err)
			return nil, err
		}
	}
	out := &Result{}
	st := &out.Stats
	st.PlanCacheHit = hit
	span.SetAttr("plan_cache_hit", hit)
	if !hit {
		st.Phases = append(st.Phases,
			PhaseSpan{Phase: obs.PhaseEnumerate, Duration: e.stats.EnumerateTime, Candidates: e.stats.Candidates},
			PhaseSpan{Phase: obs.PhaseRank, Duration: e.stats.RankTime, Candidates: e.stats.Candidates})
		st.CompileTime = e.stats.EnumerateTime + e.stats.RankTime
	}
	if span != nil {
		compile := span.StartChildAt("compile", begin)
		compile.SetAttr("plan", e.plan.Desc)
		if aux := core.PlanAuxSummary(e.plan); aux != "" {
			compile.SetAttr("aux_tables", aux)
		}
		if !hit {
			compile.SetAttr("candidates", int64(e.stats.Candidates))
			compile.LeafAt(obs.PhaseEnumerate, begin, e.stats.EnumerateTime)
			compile.LeafAt(obs.PhaseRank, begin.Add(e.stats.EnumerateTime), e.stats.RankTime)
		}
		compile.End()
	}
	runBegin := time.Now()
	res, lowerDur, err := s.exec(e.plan, true, engine.Options{Cancel: cancel, Progress: tracker, Fuel: fuel})
	var count int64
	if err == nil {
		count, err = e.plan.ExtractCount(res.Globals, run.resolve)
	}
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	if res.Canceled {
		// A run can stop for two reasons on this path: the cancel flag
		// (explicit Cancel, /debug/queries/cancel, or the deadline) or a
		// drained fuel budget. The budget going negative identifies the
		// latter.
		if fuel != nil && fuel.Load() < 0 {
			span.EndErr(ErrBudgetExceeded)
			return nil, ErrBudgetExceeded
		}
		span.EndErr(ErrCanceled)
		return nil, ErrCanceled
	}
	st.Phases = append(st.Phases,
		PhaseSpan{Phase: obs.PhaseLower, Duration: lowerDur},
		PhaseSpan{Phase: obs.PhaseExecute, Duration: res.Elapsed})
	st.ExecTime = res.Elapsed
	st.Exec = execStatsFromResult(res)
	st.WorkPerThread = append([]int64(nil), res.WorkPerThread...)
	out.Count = count
	if run.harvest != nil {
		run.harvest(e.plan, res.Globals)
	}
	if span != nil {
		span.LeafAt(obs.PhaseLower, runBegin, lowerDur)
		span.LeafAt(obs.PhaseExecute, runBegin.Add(lowerDur), res.Elapsed,
			obs.SpanAttr{Key: "fuel_spent", Value: st.Exec.Instructions},
			obs.SpanAttr{Key: "kernels", Value: st.Exec.Kernels},
			obs.SpanAttr{Key: "steals", Value: st.Exec.Steals})
		span.SetAttr("count", count)
	}
	span.End()
	s.noteSlowQuery(queryID, name, begin, time.Since(begin), e, st, meta.TraceID)
	return out, nil
}

// noteSlowQuery records the finished query in the slow-query log when
// its end-to-end latency crossed the configured threshold, carrying the
// selected plan (Explain pseudocode + bytecode disassembly), the
// kernel-path mix, and the run's profile (when profiling was on).
func (s *System) noteSlowQuery(queryID uint64, name string, begin time.Time, total time.Duration, e *planEntry, st *QueryStats, requestTraceID string) {
	if thr := obs.SlowQueryThreshold(); thr <= 0 || total < thr {
		return
	}
	obs.RecordSlowQuery(&obs.SlowQuery{
		QueryID:        queryID,
		RequestTraceID: requestTraceID,
		Name:           name,
		Begin:          begin,
		DurationNS:     total.Nanoseconds(),
		Plan:           slowQueryPlan(e),
		Disassembly:    core.PlanDisassembly(e.plan),
		Kernels:        st.Exec.Kernels,
		Profile:        st.Exec.Profile,
	})
}

// slowQueryPlan renders the slow-query log's plan text: the Explain
// pseudocode plus, when the compiler materialized or rejected auxiliary
// tables for this plan, the pass's decisions and cost estimates.
func slowQueryPlan(e *planEntry) string {
	plan := fmt.Sprintf("chosen: %s\n\n%s", e.plan.Desc, core.PlanPseudocode(e.plan))
	if aux := core.PlanAuxSummary(e.plan); aux != "" {
		plan += "\nauxiliary graphs:\n" + aux
	}
	return plan
}
