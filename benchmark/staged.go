package main

import (
	"fmt"
	"sort"
	"time"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/cost"
	"decomine/internal/decomp"
	"decomine/internal/engine"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

// stager replays one job stage by stage — sampling.BuildProfile →
// cost.NewApproxMining → core.Search → ast.LowerWith → engine.Prepare →
// engine.Run — with the options System.searchOptions and
// System.execOptions derive from default Options, recording a span
// around each call into a layer. A replay is only trusted when it
// reproduces the job's answer and VM instruction total exactly.
type stager struct {
	tr      *tracer
	g       *graph.Graph
	threads int
	model   cost.Model
	pool    *engine.Pool

	searches, candidates int
	rewrites             int
	runs                 []stagedRun
	instrs, auxTables    int // lowered size and aux tables of the plans run
	par                  execTotals
	fsmLevels, fsmCands  int
}

// stagedRun is one plan execution, kept so the same work can be rerun
// on one thread.
type stagedRun struct {
	plan        *core.Plan
	code        *ast.Lowered
	prep        *engine.Prepared
	newConsumer func(worker int) engine.Consumer
}

// execTotals sums engine results over the runs of one job.
type execTotals struct {
	instructions   int64
	elapsed        time.Duration
	steals, splits int64
	kernelElems    [engine.NumKernels]int64
	maxWork        int64 // Σ over runs of the busiest worker's instructions
	sumWork        int64 // Σ over runs of all workers' instructions
	workers        int
}

func (t *execTotals) add(res *engine.Result) {
	t.instructions += res.InstructionsExecuted()
	t.elapsed += res.Elapsed
	t.steals += res.Steals
	t.splits += res.Splits
	for k, e := range res.KernelElems {
		t.kernelElems[k] += e
	}
	var mx int64
	for _, w := range res.WorkPerThread {
		t.sumWork += w
		mx = max(mx, w)
	}
	t.maxWork += mx
	t.workers = max(t.workers, len(res.WorkPerThread))
}

// maxOverMean is the busiest worker's share of the work relative to an
// even split: what bounds the gain from more threads.
func (t *execTotals) maxOverMean() float64 {
	if t.sumWork == 0 || t.workers == 0 {
		return 1
	}
	return float64(t.maxWork) * float64(t.workers) / float64(t.sumWork)
}

func newStager(tr *tracer, g *graph.Graph, threads int, seed int64) *stager {
	st := &stager{tr: tr, g: g, threads: threads, pool: engine.NewPool(threads)}
	tr.in("cost.profile", func() {
		prof := sampling.BuildProfile(g, sampling.Options{Seed: seed + 1000})
		st.model = cost.NewApproxMining(cost.StatsOf(g), prof)
	})
	return st
}

func (st *stager) close() { st.pool.Close() }

// search runs one algorithm search the way System.planFlavor does.
func (st *stager) search(p *pattern.Pattern, mode core.Mode, induced bool, skip map[pattern.Code]bool) (*core.Candidate, error) {
	var stats core.SearchStats
	var best *core.Candidate
	var err error
	st.tr.in("core.search", func() {
		best, _, err = core.Search(p, core.SearchOptions{Model: st.model, Mode: mode, Induced: induced, SkipShrinkCodes: skip, Stats: &stats})
		st.tr.leaf("core.enumerate", stats.EnumerateTime)
		st.tr.leaf("core.rank", stats.RankTime)
	})
	st.searches++
	st.candidates += stats.Candidates
	return best, err
}

// run executes plan on the stager's pool the way System.runStats does.
func (st *stager) run(plan *core.Plan, newConsumer func(worker int) engine.Consumer) (*engine.Result, error) {
	// Search lowered every candidate while ranking it, so Lowered() is a
	// cache hit; lower the chosen plan again to time one lowering.
	st.tr.in("ast.lower", func() { ast.LowerWith(plan.Prog, plan.LowerOpts) })
	r := stagedRun{plan: plan, code: plan.Lowered(), newConsumer: newConsumer}
	st.instrs += len(r.code.Code)
	st.auxTables += len(r.code.Aux)
	st.tr.in("engine.prepare", func() { r.prep = engine.Prepare(st.g, r.code) })
	var res *engine.Result
	var err error
	st.tr.in("engine.run", func() {
		res, err = engine.Run(st.g, plan.Prog, engine.Options{
			Threads: st.threads, Code: r.code, Pool: st.pool, Prepared: r.prep, NewConsumer: newConsumer,
		})
	})
	if err != nil {
		return nil, err
	}
	st.runs = append(st.runs, r)
	st.par.add(res)
	return res, nil
}

// rerunSequential repeats every plan execution of the replay on one
// thread, for the VM's cost per instruction without scheduling effects.
func (st *stager) rerunSequential() (execTotals, error) {
	var seq execTotals
	var err error
	st.tr.in("engine.run_1thread", func() {
		for _, r := range st.runs {
			var res *engine.Result
			res, err = engine.Run(st.g, r.plan.Prog, engine.Options{Threads: 1, Code: r.code, Prepared: r.prep, NewConsumer: r.newConsumer})
			if err != nil {
				return
			}
			seq.add(res)
		}
	})
	return seq, err
}

// count runs a count-mode plan and extracts its count; resolve supplies
// the standalone counts of externalized shrinkages.
func (st *stager) count(plan *core.Plan, resolve func(pattern.Code) (int64, bool)) (int64, error) {
	res, err := st.run(plan, nil)
	if err != nil {
		return 0, err
	}
	return plan.ExtractCount(res.Globals, resolve)
}

// batch replays System.CountPatterns with sharing on and no external
// cache: resolve every member to its needs, plan the needs, externalize
// the shrinkage quotients demanded at least twice and replan the plans
// that enumerate them, then execute the needs and externalized
// quotients in ascending vertex count and compose the member answers.
func (st *stager) batch(ps []*pattern.Pattern, induced bool) ([]int64, error) {
	type member struct {
		eval func(map[pattern.Code]int64) (int64, error)
	}
	members := make([]member, len(ps))
	pats := map[pattern.Code]*pattern.Pattern{}
	for i, p := range ps {
		var rw *decomp.Rewrite
		var ok bool
		var err error
		st.tr.in("decomp.rewrite", func() { rw, ok, err = decomp.RewriteQuery(p, induced) })
		st.rewrites++
		if err != nil {
			return nil, err
		}
		needs := []*pattern.Pattern{p}
		if ok {
			needs = rw.Needs
			members[i].eval = rw.Eval
		} else {
			own := p.Canonical()
			members[i].eval = func(counts map[pattern.Code]int64) (int64, error) {
				c, found := counts[own]
				if !found {
					return 0, fmt.Errorf("staged batch is missing the count of %s", p)
				}
				return c, nil
			}
		}
		for _, q := range needs {
			if c := q.Canonical(); pats[c] == nil {
				pats[c] = q
			}
		}
	}
	needs := sortedCodes(pats)
	entry := map[pattern.Code]*core.Candidate{}
	refs := map[pattern.Code]int{}
	quotients := map[pattern.Code]*pattern.Pattern{}
	for _, c := range needs {
		e, err := st.search(pats[c], core.ModeCount, false, nil)
		if err != nil {
			return nil, err
		}
		entry[c] = e
		for _, sh := range e.Plan.Shrink {
			refs[sh.Code]++
			if quotients[sh.Code] == nil {
				quotients[sh.Code] = sh.Pat
			}
		}
	}
	ext := map[pattern.Code]bool{}
	for c, n := range refs {
		if pats[c] != nil {
			n++
		}
		if n >= 2 {
			ext[c] = true
		}
	}
	if len(ext) > 0 {
		for _, c := range needs {
			for _, sh := range entry[c].Plan.Shrink {
				if ext[sh.Code] {
					e, err := st.search(pats[c], core.ModeCount, false, ext)
					if err != nil {
						return nil, err
					}
					entry[c] = e
					break
				}
			}
		}
	}
	exec := append([]pattern.Code(nil), needs...)
	for _, c := range sortedCodes(quotients) {
		if !ext[c] || pats[c] != nil {
			continue
		}
		pats[c] = quotients[c]
		e, err := st.search(quotients[c], core.ModeCount, false, nil)
		if err != nil {
			return nil, err
		}
		entry[c] = e
		exec = append(exec, c)
	}
	sort.SliceStable(exec, func(i, j int) bool {
		if a, b := pats[exec[i]].NumVertices(), pats[exec[j]].NumVertices(); a != b {
			return a < b
		}
		return exec[i] < exec[j]
	})
	table := map[pattern.Code]int64{}
	for _, c := range exec {
		n, err := st.count(entry[c].Plan, func(q pattern.Code) (int64, bool) { v, ok := table[q]; return v, ok })
		if err != nil {
			return nil, err
		}
		table[c] = n
	}
	out := make([]int64, len(ps))
	for i, m := range members {
		n, err := m.eval(table)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func sortedCodes(m map[pattern.Code]*pattern.Pattern) []pattern.Code {
	out := make([]pattern.Code, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// vertexInduced replays System.GetPatternCountVertexInduced: search the
// direct vertex-induced plan and the edge-induced plans of p's
// supergraph classes, run whichever the cost model prices lower.
func (st *stager) vertexInduced(p *pattern.Pattern) (int64, error) {
	direct, errDirect := st.search(p, core.ModeCount, true, nil)
	classes := pattern.ConversionPlan(p)
	var indirect []*core.Plan
	var indirectCost float64
	var errIndirect error
	for _, q := range classes {
		best, err := st.search(q, core.ModeCount, false, nil)
		if err != nil {
			errIndirect = err
			break
		}
		indirectCost += best.Cost
		indirect = append(indirect, best.Plan)
	}
	switch {
	case errDirect != nil && errIndirect != nil:
		return 0, fmt.Errorf("no vertex-induced plan for %s: %v / %v", p, errDirect, errIndirect)
	case errIndirect != nil || (errDirect == nil && direct.Cost <= indirectCost):
		return st.count(direct.Plan, nil)
	}
	ei := map[pattern.Code]int64{}
	for i, q := range classes {
		n, err := st.count(indirect[i], nil)
		if err != nil {
			return 0, err
		}
		ei[q.Canonical()] = n
	}
	return pattern.VertexInducedFromEdgeInduced(p, ei), nil
}

// mniSupport replays System.patternSupport: search an emit-mode plan
// and run it with a consumer that marks, per pattern vertex, the graph
// vertices its partial embeddings map it to.
func (st *stager) mniSupport(p *pattern.Pattern) (int64, error) {
	best, err := st.search(p, core.ModeEmit, false, nil)
	if err != nil {
		return 0, err
	}
	toWhole := [][]int{nil}
	if d := best.Plan.Decomposition; d != nil {
		toWhole = toWhole[:0]
		for _, sp := range d.Subpatterns {
			toWhole = append(toWhole, sp.ToWhole)
		}
	} else {
		for v := 0; v < p.NumVertices(); v++ {
			toWhole[0] = append(toWhole[0], v)
		}
	}
	n, k := st.g.NumVertices(), p.NumVertices()
	var doms [][][]bool // worker → pattern vertex → graph vertex
	newConsumer := func(int) engine.Consumer {
		d := make([][]bool, k)
		for i := range d {
			d[i] = make([]bool, n)
		}
		doms = append(doms, d)
		return engine.ConsumerFunc(func(sub int, verts []uint32, _ int64) bool {
			for i, w := range toWhole[sub] {
				d[w][verts[i]] = true
			}
			return true
		})
	}
	if _, err := st.run(best.Plan, newConsumer); err != nil {
		return 0, err
	}
	sup := int64(n + 1)
	for v := 0; v < k; v++ {
		var size int64
		for gv := 0; gv < n; gv++ {
			for _, d := range doms {
				if d[v][gv] {
					size++
					break
				}
			}
		}
		sup = min(sup, size)
	}
	return sup, nil
}

// fsm replays System.FSM level by level.
func (st *stager) fsm(minSupport int64, maxEdges int) (answer, error) {
	ans, levels, cands, err := fsmLevels(st.g, minSupport, maxEdges, st.mniSupport)
	st.fsmLevels, st.fsmCands = levels, cands
	return ans, err
}
