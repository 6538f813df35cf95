package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"decomine"
	"decomine/internal/core"
	"decomine/internal/decomp"
	"decomine/internal/graph"
	"decomine/internal/obs"
	"decomine/internal/pattern"
)

const serveName = "serve-mix-rmat"

// The request mix. Classes are drawn with these cumulative shares; a
// draw that is impossible in the cache's current state (a hit with
// nothing cached, an exec with every pool query cached, a rewrite with
// a need missing) falls back to exec, then hit.
var classShare = []struct {
	class string
	upTo  float64
}{
	{"hit", 0.60}, {"exec", 0.85}, {"rewrite", 0.93}, {"batch", 0.97}, {"compile", 0.99}, {"reject", 1},
}

// execPool is what the exec class executes: plan-cached edge-induced
// queries costing 0.2–60 ms on the full-size graph. They are also the
// needs of every rewrite-class query.
var execPool = []string{
	"0-1", "chain-3", "clique-3", "chain-4", "star-4", "cycle-4",
	"tailed-triangle", "0-1,0-2,1-2,1-3,2-3", "clique-4", "clique-5",
}

// rewriteExtra are disconnected patterns the rewrite layer composes
// from the pool's counts, on top of the vertex-induced form of every
// pool query.
var rewriteExtra = []string{"0-1,2-3", "0-1,1-2,3-4", "0-1,1-2,2-0,3-4"}

// batchCensus is the batch class's request: the induced 4-motif census.
var batchCensus = []string{"chain-4", "star-4", "cycle-4", "tailed-triangle", "0-1,0-2,1-2,1-3,2-3", "clique-4"}

// query is one counting question and the cache key the server files its
// answer under.
type query struct {
	spec    string
	labels  []uint32
	induced bool
	p       *pattern.Pattern
	key     string
	// needs are the keys a rewrite composes this answer from; nil for a
	// connected edge-induced query, which executes.
	needs []string
}

func newQuery(spec string, labels []uint32, induced bool) (*query, error) {
	pp, err := decomine.PatternByName(spec)
	if err != nil {
		if pp, err = decomine.ParsePattern(spec); err != nil {
			return nil, err
		}
	}
	p := pp.Raw().Clone()
	for v, l := range labels {
		p.SetLabel(v, l)
	}
	q := &query{spec: spec, labels: labels, induced: induced, p: p, key: cacheKey(p, induced)}
	rw, ok, err := decomp.RewriteQuery(p, induced)
	if err != nil {
		return nil, err
	}
	if ok {
		for _, n := range rw.Needs {
			q.needs = append(q.needs, cacheKey(n, false))
		}
	}
	return q, nil
}

func cacheKey(p *pattern.Pattern, induced bool) string {
	if induced {
		return string(p.Canonical()) + "|vi"
	}
	return string(p.Canonical()) + "|ei"
}

// request is one HTTP call of the script with what it must return.
type request struct {
	class  string // a mix class, or "epoch" for a cache-epoch bump
	path   string
	body   []byte
	status int
	// queries are what the response's counts answer, in order.
	queries []*query
	// cached/rewritten/executed are the response flags the simulated
	// cache predicts; checkFlags is false where it predicts nothing.
	checkFlags        bool
	cached, rewritten bool
	executed          int
}

// scriptGen generates one client's request script from its seed. Every
// client owns a graph name for single queries and one for batches, so
// no other client moves its cache and the generator can simulate the
// server's result cache exactly: it knows for every request whether the
// answer must come from the cache, a rewrite, or an execution.
type scriptGen struct {
	rng         *rand.Rand
	sz          *sizes
	graph       string
	batchGraph  string
	pool        []*query
	rewrites    []*query
	shapes      []*pattern.Pattern
	reject      *query
	census      []*query
	cached      map[string]bool
	cachedOrder []*query
	compiled    map[string]bool
	sinceBump   int
	// queries collects every distinct query issued, for verification.
	queries map[string]*query
}

func newScriptGen(sz *sizes, seed int64, client int) (*scriptGen, error) {
	g := &scriptGen{
		rng:        rand.New(rand.NewSource(seed*1000 + int64(client))),
		sz:         sz,
		graph:      fmt.Sprintf("g%d", client),
		batchGraph: fmt.Sprintf("b%d", client),
		shapes:     pattern.ConnectedPatterns(4),
		cached:     map[string]bool{},
		compiled:   map[string]bool{},
		queries:    map[string]*query{},
	}
	poolKeys := map[string]bool{}
	for _, spec := range execPool {
		q, err := newQuery(spec, nil, false)
		if err != nil {
			return nil, err
		}
		g.pool = append(g.pool, q)
		poolKeys[q.key] = true
	}
	// The rewrite class: the vertex-induced form of every pool query and
	// the edge-induced count of each disconnected extra, kept only when
	// the pool covers every count the recipe needs.
	for i, spec := range append(append([]string(nil), execPool...), rewriteExtra...) {
		q, err := newQuery(spec, nil, i < len(execPool))
		if err != nil {
			return nil, err
		}
		composable := len(q.needs) > 0
		for _, n := range q.needs {
			composable = composable && poolKeys[n]
		}
		if composable {
			g.rewrites = append(g.rewrites, q)
		}
	}
	for _, spec := range batchCensus {
		q, err := newQuery(spec, nil, true)
		if err != nil {
			return nil, err
		}
		g.census = append(g.census, q)
		g.queries[q.key] = q
	}
	var err error
	g.reject, err = newQuery(sz.Serve.Reject, nil, false)
	return g, err
}

func (g *scriptGen) queryRequest(class string, q *query) request {
	g.queries[q.key] = q
	body, _ := json.Marshal(map[string]any{"graph": g.graph, "pattern": q.spec, "induced": q.induced, "labels": q.labels})
	r := request{class: class, path: "/query", body: body, status: http.StatusOK, queries: []*query{q}, checkFlags: true}
	switch {
	case g.cached[q.key]:
		r.cached = true
	case q.needs != nil:
		r.rewritten = true
	default:
		r.executed = 1
	}
	if !g.cached[q.key] {
		g.cached[q.key] = true
		g.cachedOrder = append(g.cachedOrder, q)
	}
	return r
}

func (g *scriptGen) bump(graphName string) request {
	return request{class: "epoch", path: "/graphs/" + graphName + "/epoch", status: http.StatusOK}
}

// prelude is the start of every client's warm-up: every pool query,
// every rewrite, one batch and one reject, so each plan the script can
// need is compiled before anything is timed.
func (g *scriptGen) prelude() []request {
	var out []request
	for _, q := range g.pool {
		out = append(out, g.queryRequest("exec", q))
	}
	for _, q := range g.rewrites {
		out = append(out, g.queryRequest("rewrite", q))
	}
	out = append(out, g.batch()...)
	return append(out, g.rejectRequest())
}

func (g *scriptGen) batch() []request {
	body, _ := json.Marshal(map[string]any{"graph": g.batchGraph, "patterns": batchCensus, "induced": true})
	// A fresh epoch on the batch graph makes every batch execute its
	// whole census, so its subquery and shared-hit counts repeat exactly.
	return []request{g.bump(g.batchGraph), {class: "batch", path: "/queries/batch", body: body, status: http.StatusOK, queries: g.census}}
}

func (g *scriptGen) rejectRequest() request {
	body, _ := json.Marshal(map[string]any{"graph": g.graph, "pattern": g.reject.spec})
	return request{class: "reject", path: "/query", body: body, status: http.StatusTooManyRequests}
}

// pick returns a random element of qs that ok accepts, or nil.
func (g *scriptGen) pick(qs []*query, ok func(*query) bool) *query {
	var fit []*query
	for _, q := range qs {
		if ok(q) {
			fit = append(fit, q)
		}
	}
	if len(fit) == 0 {
		return nil
	}
	return fit[g.rng.Intn(len(fit))]
}

// next returns the next script entry: one request of the mix, preceded
// by an epoch bump when one is due.
func (g *scriptGen) next() []request {
	var out []request
	if g.sinceBump >= g.sz.Serve.Epoch {
		out = append(out, g.bump(g.graph))
		g.cached, g.cachedOrder, g.sinceBump = map[string]bool{}, nil, 0
	}
	g.sinceBump++
	x := g.rng.Float64()
	class := ""
	for _, c := range classShare {
		if x < c.upTo {
			class = c.class
			break
		}
	}
	uncached := func(q *query) bool { return !g.cached[q.key] }
	switch class {
	case "batch":
		return append(out, g.batch()...)
	case "reject":
		return append(out, g.rejectRequest())
	case "compile":
		for try := 0; try < 64; try++ {
			shape := g.shapes[g.rng.Intn(len(g.shapes))]
			labels := make([]uint32, shape.NumVertices())
			for v := range labels {
				labels[v] = uint32(1 + g.rng.Intn(g.sz.Serve.Labels-1))
			}
			q, err := newQuery(shape.String(), labels, false)
			if err == nil && !g.compiled[q.key] {
				g.compiled[q.key] = true
				return append(out, g.queryRequest("compile", q))
			}
		}
	case "rewrite":
		q := g.pick(g.rewrites, func(q *query) bool {
			for _, n := range q.needs {
				if !g.cached[n] {
					return false
				}
			}
			return !g.cached[q.key]
		})
		if q != nil {
			return append(out, g.queryRequest("rewrite", q))
		}
	case "hit":
		if len(g.cachedOrder) > 0 {
			return append(out, g.queryRequest("hit", g.cachedOrder[g.rng.Intn(len(g.cachedOrder))]))
		}
	}
	if q := g.pick(g.pool, uncached); q != nil {
		return append(out, g.queryRequest("exec", q))
	}
	if len(g.cachedOrder) > 0 {
		return append(out, g.queryRequest("hit", g.cachedOrder[g.rng.Intn(len(g.cachedOrder))]))
	}
	return append(out, g.queryRequest("exec", g.pool[0]))
}

// daemon is a running decomined child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *listenWatcher
	// done is closed once the process has been waited for.
	done chan struct{}
}

// stop kills the child and waits until it has ended. It may be called
// more than once.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only when it has already exited
	<-d.done
}

// listenWatcher is the child's stderr: it keeps the output for error
// reports and announces the address from decomined's "listening on"
// line.
type listenWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var listenLine = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() < 1<<16 {
		w.buf.Write(p)
	}
	if !w.sent {
		if m := listenLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *listenWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon launches decomined on a loopback port of the kernel's
// choosing, serving graphFile under every name in graphs, and returns
// once /healthz answers. The caller must stop it.
func startDaemon(cfg *config, sz *sizes, graphFile string, graphs []string, traceSample float64) (*daemon, error) {
	if cfg.decomined == "" {
		return nil, fmt.Errorf("%s needs -decomined, the built daemon binary (run.sh builds and passes it)", serveName)
	}
	args := []string{
		"-listen", "127.0.0.1:0", "-threads", fmt.Sprint(cfg.threads),
		"-trace-sample", fmt.Sprint(traceSample), "-trace-cap", "16384",
		"-max-cost", fmt.Sprint(sz.Serve.MaxCost),
	}
	for _, name := range graphs {
		args = append(args, "-graph", name+"="+graphFile)
	}
	d := &daemon{cmd: exec.Command(cfg.decomined, args...), log: &listenWatcher{addr: make(chan string, 1)}, done: make(chan struct{})}
	d.cmd.Stderr = d.log
	// The child must not outlive a harness that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed child says nothing
		close(d.done)
	}()
	select {
	case d.base = <-d.log.addr:
	case <-d.done:
		return nil, fmt.Errorf("decomined exited before listening: %s", d.log)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("decomined did not start listening: %s", d.log)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("decomined never answered /healthz: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serveResponse is the union of the /query and /queries/batch replies'
// fields the harness reads.
type serveResponse struct {
	Count              int64  `json:"count"`
	Cached             bool   `json:"cached"`
	Rewritten          bool   `json:"rewritten"`
	ExecutedSubqueries int    `json:"executed_subqueries"`
	Instructions       int64  `json:"instructions"`
	TraceID            string `json:"trace_id"`
	Counts             []struct {
		Count int64 `json:"count"`
	} `json:"counts"`
	Batch struct {
		Subqueries int   `json:"subqueries"`
		SharedHits int64 `json:"shared_hits"`
	} `json:"batch"`
}

// client is one closed-loop keep-alive connection replaying its script.
type client struct {
	http *http.Client
	base string
	gen  *scriptGen

	lat       map[string][]float64 // class → request latencies, ms
	counts    map[string]int64     // query key → first count returned
	instr     map[string]int64     // query key → VM instructions when executed
	traceIDs  []string
	res       result // attempted, failed and the first failures
	cachedN   int
	batchSub  []int
	batchHits []int64
}

func newClient(base string, gen *scriptGen) *client {
	return &client{
		// One connection per client, kept alive across the whole script.
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base, gen: gen,
		lat: map[string][]float64{}, counts: map[string]int64{}, instr: map[string]int64{},
	}
}

// do sends one request and checks status, flags and counts. record is
// false during warm-up, which is checked but not timed.
func (c *client) do(r request, record bool) {
	start := time.Now()
	resp, err := c.http.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	elapsed := time.Since(start)
	job := r.class != "epoch" // an epoch bump is the operator's, not a user's job
	if job && record {
		c.res.attempted++
		c.lat[r.class] = append(c.lat[r.class], ms(elapsed))
	}
	if err != nil {
		c.res.fail("%s %s: %v", r.class, r.path, err)
		return
	}
	if resp.StatusCode != r.status {
		c.res.fail("%s %s: status %d, want %d: %.120s", r.class, r.body, resp.StatusCode, r.status, body)
		return
	}
	if len(r.queries) == 0 {
		return
	}
	var sr serveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		c.res.fail("%s %s: %v", r.class, r.body, err)
		return
	}
	if sr.TraceID != "" && record {
		c.traceIDs = append(c.traceIDs, sr.TraceID)
	}
	got := []int64{sr.Count}
	if r.class == "batch" {
		got = got[:0]
		for _, bc := range sr.Counts {
			got = append(got, bc.Count)
		}
		if record {
			c.batchSub = append(c.batchSub, sr.Batch.Subqueries)
			c.batchHits = append(c.batchHits, sr.Batch.SharedHits)
		}
	}
	if len(got) != len(r.queries) {
		c.res.fail("%s %s: %d counts for %d patterns", r.class, r.body, len(got), len(r.queries))
		return
	}
	for i, q := range r.queries {
		if first, seen := c.counts[q.key]; !seen {
			c.counts[q.key] = got[i]
		} else if first != got[i] {
			c.res.fail("%s %s: count %d, earlier %d", r.class, q.key, got[i], first)
		}
	}
	if sr.Cached && record {
		c.cachedN++
	}
	if r.checkFlags && (sr.Cached != r.cached || sr.Rewritten != r.rewritten || sr.ExecutedSubqueries != r.executed) {
		c.res.fail("%s %s: cached=%v rewritten=%v executed=%d, the script predicts %v %v %d",
			r.class, r.body, sr.Cached, sr.Rewritten, sr.ExecutedSubqueries, r.cached, r.rewritten, r.executed)
	}
	if r.executed == 1 && sr.ExecutedSubqueries == 1 {
		c.instr[r.queries[0].key] = sr.Instructions
	}
}

// serveEnv is a running daemon with one warmed-up client per thread.
type serveEnv struct {
	d       *daemon
	clients []*client
	graph   string // the edge-list file the daemon loaded
	// reg is the growth of the daemon's registry over the last replay
	// (traced runs only).
	reg map[string]int64
}

// writeGraphFiles writes g as an edge list plus the labels file
// decomined's loader looks for next to it. The loader sizes the graph
// by the largest vertex ID an edge names, so the labels stop there.
func writeGraphFiles(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	n := g.NumVertices()
	for n > 0 && g.Degree(uint32(n-1)) == 0 {
		n--
	}
	var labels bytes.Buffer
	for v := 0; v < n; v++ {
		fmt.Fprintln(&labels, g.Label(uint32(v)))
	}
	return os.WriteFile(path+".labels", labels.Bytes(), 0o644)
}

// setUpServe generates the seed's graph file, starts the daemon on it
// and replays every client's warm-up. dir receives the graph files.
func setUpServe(cfg *config, sz *sizes, dir string, traceSample float64) (*serveEnv, error) {
	c := sz.Serve
	env := &serveEnv{graph: filepath.Join(dir, fmt.Sprintf("rmat-%d-%d-seed%d.txt", c.Scale, c.EdgeFactor, cfg.seed))}
	g := graph.RMAT(c.Scale, c.EdgeFactor, cfg.seed).WithRandomLabels(c.Labels, cfg.seed+1)
	if err := writeGraphFiles(g, env.graph); err != nil {
		return nil, err
	}
	var names []string
	for i := 0; i < cfg.threads; i++ {
		names = append(names, fmt.Sprintf("g%d", i), fmt.Sprintf("b%d", i))
	}
	d, err := startDaemon(cfg, sz, env.graph, names, traceSample)
	if err != nil {
		return nil, err
	}
	env.d = d
	for i := 0; i < cfg.threads; i++ {
		gen, err := newScriptGen(sz, cfg.seed, i)
		if err != nil {
			d.stop()
			return nil, err
		}
		env.clients = append(env.clients, newClient(d.base, gen))
	}
	// Warm up one client after another: concurrent first queries make
	// the daemon profile two graphs at once, and whether the two
	// allocation peaks overlap moved its peak RSS between 38 and 64 MB.
	for _, cl := range env.clients {
		for _, r := range cl.gen.prelude() {
			cl.do(r, false)
		}
		for i := 0; i < sz.Serve.WarmUp; i++ {
			for _, r := range cl.gen.next() {
				cl.do(r, false)
			}
		}
	}
	return env, nil
}

// replay runs every client's script concurrently, each closed-loop,
// for d and returns the wall time; counts and latencies accumulate on
// the clients.
func (env *serveEnv) replay(d time.Duration) time.Duration {
	begin := time.Now()
	var wg sync.WaitGroup
	for _, cl := range env.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for time.Since(begin) < d {
				for _, r := range cl.gen.next() {
					cl.do(r, true)
				}
			}
		}(cl)
	}
	wg.Wait()
	return time.Since(begin)
}

// merged folds the clients' observations together. Every client's
// graph is the same file, so a key's count must agree across clients.
func (env *serveEnv) merged(res *result) (lat map[string][]float64, counts map[string]int64, queries map[string]*query) {
	lat, counts, queries = map[string][]float64{}, map[string]int64{}, map[string]*query{}
	for _, cl := range env.clients {
		res.attempted += cl.res.attempted
		res.failed += cl.res.failed
		res.failures = append(res.failures, cl.res.failures...)
		for class, l := range cl.lat {
			lat[class] = append(lat[class], l...)
		}
		for key, n := range cl.counts {
			if first, seen := counts[key]; seen && first != n {
				res.fail("%s: one client got %d, another %d", key, first, n)
			}
			counts[key] = n
		}
		for key, q := range cl.gen.queries {
			queries[key] = q
		}
	}
	return lat, counts, queries
}

// hashScript fingerprints the graph file and the first entries of every
// client's script, from fresh generators so the live ones are untouched.
func hashScript(cfg *config, graphFile string) (string, error) {
	var ih inputHash
	for _, path := range []string{graphFile, graphFile + ".labels"} {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		ih.add(string(data))
	}
	for i := 0; i < cfg.threads; i++ {
		gen, err := newScriptGen(cfg.sz, cfg.seed, i)
		if err != nil {
			return "", err
		}
		for n := 0; n < 2000; n++ {
			for _, r := range gen.next() {
				ih.add(r.class, r.path, string(r.body))
			}
		}
	}
	return ih.String(), nil
}

// verifyServe replays a short script against a daemon serving the
// scaled-down sibling graph and holds every count to the oracle.
func verifyServe(cfg *config, dir string) (answer, error) {
	env, err := setUpServe(cfg, &smallSize, dir, 0)
	if err != nil {
		return nil, fmt.Errorf("sibling daemon: %w", err)
	}
	defer env.d.stop()
	var res result
	_, counts, queries := env.merged(&res)
	if res.failed > 0 {
		return nil, fmt.Errorf("sibling daemon: %s", strings.Join(res.failures, "; "))
	}
	g, err := graph.LoadEdgeListFile(env.graph)
	if err != nil {
		return nil, err
	}
	want := answer{}
	for key, got := range counts {
		if want[key], err = bruteCount(g, queries[key].p, queries[key].induced); err != nil {
			return nil, fmt.Errorf("oracle on %s: %w", key, err)
		}
		if got != want[key] {
			return nil, fmt.Errorf("sibling graph: %s served %d, brute force counts %d", key, got, want[key])
		}
	}
	if want.total() == 0 {
		return nil, fmt.Errorf("the oracle counted nothing on the sibling graph; it checks nothing")
	}
	return want, nil
}

// workDirFor makes the run's private directory for graph files.
func workDirFor(cfg *config) (string, error) {
	if cfg.workDir == "" {
		return "", fmt.Errorf("%s needs -workdir, a directory it may write graph files to (run.sh passes it)", serveName)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.workDir, "serve-")
}

// pinnedAnswer is the part of the served counts that every run of one
// seed sees: the exec pool's.
func pinnedAnswer(env *serveEnv, counts map[string]int64) answer {
	a := answer{}
	for _, q := range env.clients[0].gen.pool {
		a[q.key] = counts[q.key]
	}
	return a
}

// runServe is the untraced run of the served workload.
func runServe(cfg *config) (*result, error) {
	res := newResult()
	dir, err := workDirFor(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	env, err := setUpServe(cfg, cfg.sz, dir, 0)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(cfg.start).Seconds()
	defer env.d.stop()

	wall := env.replay(cfg.seconds)
	rss, err := peakRSSMB(env.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	env.d.stop() // before the sibling daemon starts; stopping twice is harmless

	lat, counts, _ := env.merged(res)
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	hash, err := hashScript(cfg, env.graph)
	if err != nil {
		return nil, err
	}
	res.note("inputs: %s, %d clients, hash %s", filepath.Base(env.graph), len(env.clients), hash)
	verifyStart := time.Now()
	sibling, err := verifyServe(cfg, dir)
	if err != nil {
		res.fail("%v", err)
	}
	res.note("oracle check on the sibling graph: %d queries, total %d, %.2f s", len(sibling), sibling.total(), time.Since(verifyStart).Seconds())
	pinned := pinnedAnswer(env, counts)
	res.checkPin(serveName, cfg, pinned)
	res.endToEnd(setupS, all, wall, rss)
	// Only this workload has the thousand samples a 99th percentile needs
	// (ten beyond it), so it is reported here and not end to end.
	res.extra.set("server.lat_p99_ms", quantile(all, 0.99), "ms")
	classLatencies(res.extra, lat)
	res.note("answer: %d pool patterns, total %d", len(pinned), pinned.total())
	return res, nil
}

// classLatencies reports each request class's median and sample count.
func classLatencies(m metrics, lat map[string][]float64) {
	for class, l := range lat {
		m.set("server."+class+"_p50_ms", median(l), "ms")
		m.set("server."+class+"_n", float64(len(l)), "count")
	}
}

// fetchRegistry reads the daemon's metrics registry from /debug/vars.
func fetchRegistry(base string) (obs.Snapshot, error) {
	var vars struct {
		Metrics obs.Snapshot `json:"decomine.metrics"`
	}
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		return vars.Metrics, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&vars)
	return vars.Metrics, err
}

// spanTree is the JSON form of a span tree at /debug/trace/{id}.
type spanTree struct {
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*spanTree    `json:"children"`
}

// spanName folds per-request detail out of a span's name, so that
// "count:0-1,1-2" and "wave[3]" aggregate as "count" and "wave".
func spanName(name string) string {
	if i := strings.IndexAny(name, ":["); i >= 0 {
		return name[:i]
	}
	return name
}

// walk adds every span's self time to self, and admission queue waits
// to waits.
func (t *spanTree) walk(self map[string]float64, waits *[]float64) {
	var children int64
	for _, c := range t.Children {
		children += c.DurationNS
		c.walk(self, waits)
	}
	self[spanName(t.Name)] += float64(t.DurationNS-children) / 1e6
	if w, ok := t.Attrs["queue_wait_ns"].(float64); ok {
		*waits = append(*waits, w/1e3)
	}
}

// traceServe is the traced run of the served workload. Half the time
// goes to an untraced daemon, whose registry growth and per-class
// latencies it reports; half to a daemon retaining every request's span
// tree, from which come self time per span name, span coverage and the
// tracing overhead. The exec pool is then replayed stage by stage in
// this process, on the graph file the daemon loaded and with the
// daemon's options, and held to the counts and instruction totals the
// daemon reported.
func traceServe(cfg *config) (*result, error) {
	res := newResult()
	dir, err := workDirFor(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	phase := func(traceSample float64, after func(env *serveEnv, wall time.Duration) error) error {
		env, err := setUpServe(cfg, cfg.sz, dir, traceSample)
		if err != nil {
			return err
		}
		defer env.d.stop()
		before, err := fetchRegistry(env.d.base)
		if err != nil {
			return err
		}
		wall := env.replay(cfg.seconds / 2)
		now, err := fetchRegistry(env.d.base)
		if err != nil {
			return err
		}
		env.reg = registryDelta(before, now)
		return after(env, wall)
	}

	var untracedRate float64
	var counts map[string]int64
	instr := map[string]int64{}
	var graphFile string
	err = phase(0, func(env *serveEnv, wall time.Duration) error {
		lat, c, _ := env.merged(res)
		counts, graphFile = c, env.graph
		untracedRate = float64(res.attempted) / wall.Seconds()
		classLatencies(res.extra, lat)
		var cached, batches, sub int
		var shared int64
		for _, cl := range env.clients {
			cached += cl.cachedN
			for key, n := range cl.instr {
				instr[key] = n
			}
			batches += len(cl.batchSub)
			for i := range cl.batchSub {
				sub += cl.batchSub[i]
				shared += cl.batchHits[i]
			}
		}
		res.extra.set("server.cache_hit_rate", ratio(float64(cached), float64(res.attempted)), "ratio")
		res.extra.set("batch.subqueries", ratio(float64(sub), float64(batches)), "count")
		res.extra.set("batch.shared_hits", ratio(float64(shared), float64(batches)), "count")
		res.extra.set("server.queue_wait_mean_us", ratio(float64(env.reg[`server.tenant.queue_wait_ns{tenant="default"}`])/1e3,
			float64(env.reg[`server.tenant.admitted{tenant="default"}`])), "us")
		res.metrics.set("plancache.hit_rate", ratio(float64(env.reg["plancache.hits"]),
			float64(env.reg["plancache.hits"]+env.reg["plancache.misses"])), "ratio")
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = phase(1, func(env *serveEnv, wall time.Duration) error {
		var traced result
		env.merged(&traced)
		res.failed += traced.failed
		res.failures = append(res.failures, traced.failures...)
		res.extra.set("obs.trace_overhead_frac", 1-ratio(float64(traced.attempted)/wall.Seconds(), untracedRate), "ratio")
		// Pull an even sample of the retained trees.
		var ids []string
		for _, cl := range env.clients {
			ids = append(ids, cl.traceIDs...)
		}
		self := map[string]float64{}
		var waits []float64
		var rootNS, coveredNS int64
		trees := 0
		for i := 0; i < len(ids); i += max(1, len(ids)/500) {
			resp, err := http.Get(env.d.base + "/debug/trace/" + ids[i])
			if err != nil {
				return err
			}
			var t spanTree
			err = json.NewDecoder(resp.Body).Decode(&t)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				continue // evicted from the retention ring
			}
			trees++
			t.walk(self, &waits)
			rootNS += t.DurationNS
			for _, c := range t.Children {
				coveredNS += c.DurationNS
			}
		}
		if trees == 0 {
			return fmt.Errorf("the traced daemon retained none of %d traces", len(ids))
		}
		res.serverSelf = self
		coverage := ratio(float64(coveredNS), float64(rootNS))
		res.extra.set("server.span_trees", float64(trees), "count")
		res.extra.set("server.span_coverage", coverage, "ratio")
		res.extra.set("server.queue_wait_p50_us", median(waits), "us")
		if coverage < 0.95 {
			res.note("finding: named child spans cover %.1f %% of request wall time (< 95 %%); the rest is HTTP/JSON handling the server does not span", coverage*100)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The staged replay of the exec pool, with the daemon's options:
	// seed 0 and the approximate-mining model.
	tr := newTracer()
	var g *graph.Graph
	tr.in("graph.build", func() { g, err = graph.LoadEdgeListFile(graphFile) })
	if err != nil {
		return nil, err
	}
	evalsBefore := obs.Default.Counter("cost.evals.approx-mining").Load()
	st := newStager(tr, g, cfg.threads, 0)
	defer st.close()
	gen, err := newScriptGen(cfg.sz, cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	match := 1.0
	for _, q := range gen.pool {
		best, err := st.search(q.p, core.ModeCount, false, nil)
		if err != nil {
			return nil, err
		}
		before := st.par.instructions
		n, err := st.count(best.Plan, nil)
		if err != nil {
			return nil, err
		}
		if ran := st.par.instructions - before; n != counts[q.key] || ran != instr[q.key] {
			match = 0
			res.fail("staged replay of %s: count %d in %d VM instructions, the daemon %d in %d: layer numbers are invalid",
				q.spec, n, ran, counts[q.key], instr[q.key])
		}
	}
	evals := obs.Default.Counter("cost.evals.approx-mining").Load() - evalsBefore
	seq, err := st.rerunSequential()
	if err != nil {
		return nil, err
	}
	var pats []*pattern.Pattern
	for _, q := range gen.pool {
		pats = append(pats, q.p)
	}
	layerMetrics(res.metrics, tr, st, seq, evals, pats)
	res.metrics.set("graph.build_ms", ms(tr.total("graph.build")), "ms")
	res.metrics.set("graph.hub_rows", hubRows(g), "count")
	res.metrics.set("trace.staged_match", match, "count")
	vsetKernels(res.metrics, cfg.seed)
	res.spans, res.harnessSelf = tr.spans, tr.selfMS()
	sort.Strings(res.failures)
	return res, nil
}
