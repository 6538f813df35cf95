package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"decomine"
	"decomine/internal/baseline"
	"decomine/internal/decomp"
	"decomine/internal/engine"
	"decomine/internal/graph"
	"decomine/internal/obs"
	"decomine/internal/pattern"
)

// libInput is one seed's generated input for a library workload.
type libInput struct {
	graph *decomine.Graph
	// raw regenerates the same graph as the internal type, which the
	// oracle and the staged replay take; the public Graph hides its own.
	raw func() *graph.Graph
	// pats is the compile workload's pattern list.
	pats []*decomine.Pattern
}

// libWorkload drives the system through the root decomine API only.
type libWorkload struct {
	name string
	// cold workloads make a fresh System for every job, and so pay
	// profiling and compilation inside the timed job; warm ones make one
	// System in set-up and run one untimed job there.
	cold  bool
	build func(sz *sizes, seed int64) *libInput
	job   func(sys *decomine.System, in *libInput, sz *sizes) (answer, error)
	// oracle answers the job by brute force, sharing no code with the
	// compiler or the engine.
	oracle func(g *graph.Graph, in *libInput, sz *sizes) (answer, error)
	// staged answers the job through the layers' own entry points.
	staged func(st *stager, in *libInput, sz *sizes) (answer, error)
	// layerPatterns are the patterns whose canonicalization and cutting
	// sets the traced run times in isolation.
	layerPatterns func(in *libInput, sz *sizes) []*pattern.Pattern
	// instrSlack is by how much the staged replay's VM instruction total
	// may differ from the job's; 0 everywhere the system is deterministic.
	instrSlack float64
}

func rawPatterns(ps []*decomine.Pattern) []*pattern.Pattern {
	out := make([]*pattern.Pattern, len(ps))
	for i, p := range ps {
		out[i] = p.Raw()
	}
	return out
}

func keyed(ps []*pattern.Pattern, counts []int64) answer {
	a := answer{}
	for i, p := range ps {
		a[string(p.Canonical())] = counts[i]
	}
	return a
}

var libWorkloads = []libWorkload{
	{
		name: "compile6-cold-gnp",
		cold: true,
		build: func(sz *sizes, seed int64) *libInput {
			c := sz.Compile
			in := &libInput{
				graph: decomine.GenerateGNP(c.N, c.P, seed),
				raw:   func() *graph.Graph { return graph.GNP(c.N, c.P, seed) },
			}
			// The draw is pinned (see sizes.Compile); the seed only orders
			// the list. Respelling the drawn patterns per seed was tried and
			// moved job latency by 9 % between seeds: the search's capped
			// matching-order enumeration depends on the spelling.
			all := decomine.MotifPatterns(c.K)
			draw := rand.New(rand.NewSource(c.DrawSeed))
			for i := 0; i+c.Stride <= len(all); i += c.Stride {
				in.pats = append(in.pats, all[i+draw.Intn(c.Stride)])
			}
			rand.New(rand.NewSource(seed)).Shuffle(len(in.pats), func(i, j int) { in.pats[i], in.pats[j] = in.pats[j], in.pats[i] })
			return in
		},
		job: func(sys *decomine.System, in *libInput, _ *sizes) (answer, error) {
			br, err := sys.CountPatterns(in.pats, decomine.BatchOpts{})
			if err != nil {
				return nil, err
			}
			counts := make([]int64, len(in.pats))
			for i, r := range br.Results {
				counts[i] = r.Count
			}
			return keyed(rawPatterns(in.pats), counts), nil
		},
		oracle: func(g *graph.Graph, in *libInput, _ *sizes) (answer, error) {
			a := answer{}
			for _, p := range in.pats {
				n, err := baseline.ObliviousEdgeInducedCount(g, p.Raw())
				if err != nil {
					return nil, err
				}
				a[p.CanonicalCode()] = n
			}
			return a, nil
		},
		staged: func(st *stager, in *libInput, _ *sizes) (answer, error) {
			ps := rawPatterns(in.pats)
			counts, err := st.batch(ps, false)
			return keyed(ps, counts), err
		},
		layerPatterns: func(in *libInput, _ *sizes) []*pattern.Pattern { return rawPatterns(in.pats) },
	},
	{
		name: "census5-warm-rmat",
		build: func(sz *sizes, seed int64) *libInput {
			c := sz.Census
			return &libInput{
				graph: decomine.GenerateRMAT(c.Scale, c.EdgeFactor, seed).BuildHubIndex(c.Hub),
				raw: func() *graph.Graph {
					g := graph.RMAT(c.Scale, c.EdgeFactor, seed)
					g.BuildHubIndex(c.Hub)
					return g
				},
			}
		},
		job: func(sys *decomine.System, _ *libInput, sz *sizes) (answer, error) {
			mcs, err := sys.MotifCounts(sz.Census.K)
			if err != nil {
				return nil, err
			}
			a := answer{}
			for _, mc := range mcs {
				a[mc.Pattern.CanonicalCode()] = mc.Count
			}
			return a, nil
		},
		oracle: func(g *graph.Graph, _ *libInput, sz *sizes) (answer, error) {
			census := baseline.ObliviousMotifCensus(g, sz.Census.K)
			a := answer{}
			for _, p := range pattern.ConnectedPatterns(sz.Census.K) {
				a[string(p.Canonical())] = census[p.Canonical()]
			}
			return a, nil
		},
		staged: func(st *stager, _ *libInput, sz *sizes) (answer, error) {
			ps := pattern.ConnectedPatterns(sz.Census.K)
			counts, err := st.batch(ps, true)
			return keyed(ps, counts), err
		},
		layerPatterns: func(_ *libInput, sz *sizes) []*pattern.Pattern { return pattern.ConnectedPatterns(sz.Census.K) },
	},
	{
		name: "pclique6-warm-community",
		build: func(sz *sizes, seed int64) *libInput {
			c := sz.PClique
			return &libInput{
				graph: decomine.GenerateCommunity(c.N, c.Memberships, c.Size, seed),
				raw:   func() *graph.Graph { return graph.Community(c.N, c.Memberships, c.Size, seed) },
			}
		},
		job: func(sys *decomine.System, _ *libInput, sz *sizes) (answer, error) {
			n, err := sys.PseudoCliqueCount(sz.PClique.K, sz.PClique.Missing)
			return answer{"total": n}, err
		},
		oracle: func(g *graph.Graph, _ *libInput, sz *sizes) (answer, error) {
			// The pattern-oblivious census takes minutes at six vertices
			// on a graph dense enough to hold 6-cliques.
			var total int64
			for _, p := range pattern.PseudoCliques(sz.PClique.K, sz.PClique.Missing) {
				n, err := bruteCount(g, p, true)
				if err != nil {
					return nil, err
				}
				total += n
			}
			return answer{"total": total}, nil
		},
		staged: func(st *stager, _ *libInput, sz *sizes) (answer, error) {
			var total int64
			for _, p := range pattern.PseudoCliques(sz.PClique.K, sz.PClique.Missing) {
				n, err := st.vertexInduced(p)
				if err != nil {
					return nil, err
				}
				total += n
			}
			return answer{"total": total}, nil
		},
		layerPatterns: func(_ *libInput, sz *sizes) []*pattern.Pattern {
			return pattern.PseudoCliques(sz.PClique.K, sz.PClique.Missing)
		},
	},
	{
		name: "fsm-warm-labeled-gnp",
		// System.FSM builds its first frontier by ranging over a Go map, so
		// which spelling of a candidate reaches the compiler, and with it
		// the plan, varies from System to System on one input: five fresh
		// Systems ran 40.86–41.42 M instructions for the same answer, and
		// at the oracle's sizes the totals differ by up to 3 %.
		instrSlack: 0.1,
		build: func(sz *sizes, seed int64) *libInput {
			c := sz.FSM
			return &libInput{
				graph: decomine.GenerateGNP(c.N, c.P, seed).WithRandomLabels(c.Labels, seed+1),
				raw:   func() *graph.Graph { return graph.GNP(c.N, c.P, seed).WithRandomLabels(c.Labels, seed+1) },
			}
		},
		job: func(sys *decomine.System, _ *libInput, sz *sizes) (answer, error) {
			fps, err := sys.FSM(sz.FSM.MinSupport, sz.FSM.MaxEdges)
			if err != nil {
				return nil, err
			}
			a := answer{}
			for _, fp := range fps {
				a[fp.Pattern.CanonicalCode()] = fp.Support
			}
			return a, nil
		},
		oracle: func(g *graph.Graph, _ *libInput, sz *sizes) (answer, error) {
			a, _, _, err := fsmLevels(g, sz.FSM.MinSupport, sz.FSM.MaxEdges, func(p *pattern.Pattern) (int64, error) { return bruteMNI(g, p) })
			return a, err
		},
		staged: func(st *stager, _ *libInput, sz *sizes) (answer, error) {
			return st.fsm(sz.FSM.MinSupport, sz.FSM.MaxEdges)
		},
		layerPatterns: func(_ *libInput, sz *sizes) []*pattern.Pattern {
			// FSM's candidates are labeled paths, stars and triangles.
			return []*pattern.Pattern{pattern.Chain(3), pattern.Chain(4), pattern.Star(4), pattern.Cycle(3)}
		},
	},
}

// libRun is one prepared workload instance: inputs generated, System
// built and (for warm workloads) profiled and warmed.
type libRun struct {
	w    *libWorkload
	sz   *sizes
	opts decomine.Options
	in   *libInput
	sys  *decomine.System // nil for cold workloads
}

func setUpLibrary(w *libWorkload, sz *sizes, seed int64, threads int) (*libRun, error) {
	r := &libRun{w: w, sz: sz, opts: decomine.Options{Threads: threads, Seed: seed}}
	r.in = w.build(sz, seed)
	if !w.cold {
		r.sys = decomine.NewSystem(r.in.graph, r.opts)
		r.sys.Model()
		if _, err := w.job(r.sys, r.in, sz); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *libRun) close() {
	if r.sys != nil {
		r.sys.Close()
	}
}

// job runs one user-visible mining request.
func (r *libRun) job() (answer, error) {
	if r.sys != nil {
		return r.w.job(r.sys, r.in, r.sz)
	}
	sys := decomine.NewSystem(r.in.graph, r.opts)
	defer sys.Close()
	return r.w.job(sys, r.in, r.sz)
}

// hash fingerprints what the seed generated: the graph's edge list and
// labels, and the pattern list.
func (in *libInput) hash() (string, error) {
	var edges bytes.Buffer
	if err := in.graph.WriteEdgeList(&edges); err != nil {
		return "", err
	}
	var ih inputHash
	ih.add(edges.String())
	if in.graph.Labeled() {
		for v := 0; v < in.graph.NumVertices(); v++ {
			ih.add(in.graph.Label(uint32(v)))
		}
	}
	for _, p := range in.pats {
		ih.add(p.String())
	}
	return ih.String(), nil
}

// verifyLibrary checks the workload's code path against the brute-force
// oracle on the scaled-down sibling input of the same seed.
func verifyLibrary(w *libWorkload, seed int64, threads int) (answer, error) {
	r, err := setUpLibrary(w, &smallSize, seed, threads)
	if err != nil {
		return nil, fmt.Errorf("%s: sibling set-up: %w", w.name, err)
	}
	defer r.close()
	got, err := r.job()
	if err != nil {
		return nil, fmt.Errorf("%s: sibling job: %w", w.name, err)
	}
	want, err := w.oracle(r.in.raw(), r.in, &smallSize)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
	}
	if d := got.diff(want); d != "" {
		return nil, fmt.Errorf("%s: sibling graph disagrees with the brute-force oracle: %s", w.name, d)
	}
	if want.total() == 0 {
		return nil, fmt.Errorf("%s: the oracle counted nothing on the sibling graph; it checks nothing", w.name)
	}
	return want, nil
}

// runLibrary is the untraced run: set up, run jobs for cfg.seconds,
// verify, and report the end-to-end metrics.
func runLibrary(w *libWorkload, cfg *config) (*result, error) {
	res := newResult()
	run, err := setUpLibrary(w, cfg.sz, cfg.seed, cfg.threads)
	if err != nil {
		return nil, err
	}
	defer run.close()
	setupS := time.Since(cfg.start).Seconds()

	hash, err := run.in.hash()
	if err != nil {
		return nil, err
	}
	res.note("inputs: %s, %d listed patterns, hash %s", run.in.graph, len(run.in.pats), hash)

	var first answer
	var lat []float64
	begin := time.Now()
	for time.Since(begin) < cfg.seconds || len(lat) < cfg.minJobs {
		t := time.Now()
		ans, err := run.job()
		lat = append(lat, ms(time.Since(t)))
		res.attempted++
		switch {
		case err != nil:
			res.fail("job %d: %v", len(lat), err)
		case first == nil:
			first = ans
		default:
			if d := ans.diff(first); d != "" {
				res.fail("job %d disagrees with job 1: %s", len(lat), d)
			}
		}
	}
	wall := time.Since(begin)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	verifyStart := time.Now()
	sibling, err := verifyLibrary(w, cfg.seed, cfg.threads)
	if err != nil {
		res.fail("%v", err)
	}
	res.note("oracle check on the sibling graph: %d patterns, total %d, %.2f s", len(sibling), sibling.total(), time.Since(verifyStart).Seconds())
	res.checkPin(w.name, cfg, first)

	res.endToEnd(setupS, lat, wall, rss)
	res.note("answer: %d patterns, total %d", len(first), first.total())
	return res, nil
}

// traceLibrary is the traced run: one job through the public API with
// the registry read before and after, the same job replayed stage by
// stage under harness spans, the replay's executions repeated on one
// thread, and the set kernels timed in isolation.
func traceLibrary(w *libWorkload, cfg *config) (*result, error) {
	res := newResult()
	tr := newTracer()
	var run *libRun
	var err error
	tr.in("setup", func() { run, err = setUpLibrary(w, cfg.sz, cfg.seed, cfg.threads) })
	if err != nil {
		return nil, err
	}
	defer run.close()

	// The reference job, through the public API.
	sys := run.sys
	if sys == nil {
		sys = decomine.NewSystem(run.in.graph, run.opts)
		defer sys.Close()
	}
	before, cacheBefore := obs.Default.Snapshot(), sys.CacheStats()
	var ref answer
	refDur := tr.in("job", func() { ref, err = w.job(sys, run.in, cfg.sz) })
	res.attempted++
	if err != nil {
		return nil, err
	}
	reg := registryDelta(before, obs.Default.Snapshot())
	cache := sys.CacheStats()
	lookups := cache.Hits + cache.Misses - cacheBefore.Hits - cacheBefore.Misses

	// The staged replay.
	var g *graph.Graph
	tr.in("graph.build", func() { g = run.in.raw() })
	evalsBefore := obs.Default.Counter("cost.evals.approx-mining").Load()
	st := newStager(tr, g, cfg.threads, cfg.seed)
	defer st.close()
	var staged answer
	tr.in("staged", func() { staged, err = w.staged(st, run.in, cfg.sz) })
	if err != nil {
		return nil, fmt.Errorf("%s: staged replay: %w", w.name, err)
	}
	evals := obs.Default.Counter("cost.evals.approx-mining").Load() - evalsBefore
	seq, err := st.rerunSequential()
	if err != nil {
		return nil, err
	}

	match := 1.0
	if d := staged.diff(ref); d != "" {
		match = 0
		res.fail("staged replay's answer differs from the job's: %s", d)
	}
	off := float64(st.par.instructions-reg["engine.instructions"]) / float64(reg["engine.instructions"])
	if off < -w.instrSlack || off > w.instrSlack || seq.instructions != st.par.instructions {
		match = 0
		res.fail("staged replay ran %d VM instructions (%d on one thread), the job %d: layer numbers are invalid",
			st.par.instructions, seq.instructions, reg["engine.instructions"])
	}
	// A warm job compiles nothing, so only a cold job's search count and
	// candidate total can be held against the replay's.
	if w.cold && (int64(st.searches) != reg["compile.searches"] || int64(st.candidates) != reg["compile.candidates"]) {
		match = 0
		res.fail("staged replay searched %d times over %d candidates, the job %d over %d",
			st.searches, st.candidates, reg["compile.searches"], reg["compile.candidates"])
	}

	m := res.metrics
	layerMetrics(m, tr, st, seq, evals, w.layerPatterns(run.in, cfg.sz))
	m.set("graph.build_ms", ms(tr.total("graph.build")), "ms")
	m.set("graph.hub_rows", hubRows(g), "count")
	m.set("plancache.hit_rate", ratio(float64(cache.Hits-cacheBefore.Hits), float64(lookups)), "ratio")
	m.set("trace.staged_match", match, "count")
	vsetKernels(m, cfg.seed)

	// Shares of the reference job, from the program's own registry.
	compileNS := reg["compile.search_ns"]
	if w.cold {
		compileNS += sys.ProfileTime.Nanoseconds() // a fresh System profiles inside its first job
	}
	res.extra.set("job.ms", ms(refDur), "ms")
	res.extra.set("job.compile_share", ratio(float64(compileNS), float64(refDur.Nanoseconds())), "ratio")
	res.extra.set("job.exec_share", ratio(float64(reg["engine.exec_ns"]), float64(refDur.Nanoseconds())), "ratio")
	res.extra.set("batch.subqueries", float64(reg["engine.batch.subqueries"]), "count")
	res.extra.set("batch.shared_hits", float64(reg["engine.batch.shared_hits"]), "count")
	if st.rewrites > 0 {
		res.extra.set("decomp.rewrite_us", ms(tr.total("decomp.rewrite"))*1e3/float64(st.rewrites), "us")
	}
	if st.fsmCands > 0 {
		res.extra.set("fsm.levels", float64(st.fsmLevels), "count")
		res.extra.set("fsm.candidates", float64(st.fsmCands), "count")
	}
	res.spans, res.harnessSelf = tr.spans, tr.selfMS()
	return res, nil
}

func hubRows(g *graph.Graph) float64 {
	if ix := g.HubIndex(); ix != nil {
		return float64(ix.NumHubs())
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// registryDelta is the growth of every counter, and of every
// histogram's sum, between two registry snapshots.
func registryDelta(before, after obs.Snapshot) map[string]int64 {
	d := map[string]int64{}
	for name, v := range after.Counters {
		d[name] = v - before.Counters[name]
	}
	for name, h := range after.Histograms {
		d[name] = h.Sum - before.Histograms[name].Sum
	}
	return d
}

// layerMetrics derives the per-layer numbers every workload reports
// from a staged replay's spans and totals.
func layerMetrics(m metrics, tr *tracer, st *stager, seq execTotals, evals int64, pats []*pattern.Pattern) {
	m.set("cost.profile_ms", ms(tr.total("cost.profile")), "ms")
	m.set("cost.evals", float64(evals), "count")
	m.set("cost.eval_ns", ratio(float64(tr.total("core.rank").Nanoseconds()), float64(evals)), "ns")

	m.set("core.searches", float64(st.searches), "count")
	m.set("core.search_ms", ms(tr.total("core.search")), "ms")
	m.set("core.enumerate_ms", ms(tr.total("core.enumerate")), "ms")
	m.set("core.rank_ms", ms(tr.total("core.rank")), "ms")
	m.set("core.candidates", float64(st.candidates), "count")
	m.set("core.ns_per_candidate", ratio(float64(tr.total("core.search").Nanoseconds()), float64(st.candidates)), "ns")

	m.set("ast.lower_us", ratio(ms(tr.total("ast.lower"))*1e3, float64(tr.count("ast.lower"))), "us")
	m.set("ast.instrs", float64(st.instrs), "count")
	m.set("ast.aux_tables", float64(st.auxTables), "count")

	m.set("engine.instructions", float64(st.par.instructions), "count")
	m.set("engine.vm_ns_per_instr", ratio(float64(seq.elapsed.Nanoseconds()), float64(seq.instructions)), "ns")
	m.set("engine.par_efficiency", ratio(float64(seq.elapsed), float64(st.threads)*float64(st.par.elapsed)), "ratio")
	m.set("engine.steals", float64(st.par.steals), "count")
	m.set("engine.splits", float64(st.par.splits), "count")
	m.set("engine.max_over_mean", st.par.maxOverMean(), "ratio")
	ke := st.par.kernelElems
	m.set("vset.elems.merge", float64(ke[engine.KernelMerge]), "count")
	m.set("vset.elems.gallop", float64(ke[engine.KernelGallop]), "count")
	m.set("vset.elems.bitmap", float64(ke[engine.KernelBitmap]+ke[engine.KernelBitmapCount]), "count")

	// pattern and decomp have no span of their own inside a search, so
	// time their entry points on the job's patterns directly.
	const reps = 20
	var canon, cuts time.Duration
	for i := 0; i < reps; i++ {
		for _, p := range pats {
			t := time.Now()
			p.Canonical()
			canon += time.Since(t)
			t = time.Now()
			decomp.CuttingSets(p)
			cuts += time.Since(t)
		}
	}
	calls := float64(reps * len(pats))
	m.set("pattern.canon_us", ms(canon)*1e3/calls, "us")
	m.set("decomp.cutsets_us", ms(cuts)*1e3/calls, "us")
}
