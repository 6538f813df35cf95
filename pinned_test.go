package decomine_test

// TestPinnedWorkloads pins the seed-determined outputs of eleven small
// workloads: counts, VM instruction totals, plan-cache movement,
// per-kernel dispatches, auxiliary-graph element work, the serving
// script's cache and rewrite hits, the batch ledger and, where a row
// asks, the set-kernel element work. Any drift in a pin is a behavior
// change — a different plan, lowering, kernel route, cache key or
// sharing decision — and must be re-pinned on purpose.
// Host-dependent numbers (wall and engine time, throughput, worker
// balance, speedup ratios) are measured by the benchmark/ ledger, not
// here.
//
// The workloads span the paper's §8 families at test scale: 4–6-motif
// censuses on G(n,p), R-MAT and a hub-indexed R-MAT, FSM to two and to
// three edges on a labeled G(n,p), a label-constrained query, a
// pseudo-clique census on overlapping communities, a scripted replay
// against the HTTP front door and a batched motif census. Each runs on
// one System with the options below; MaxCandidates bounds the plan
// search so the test stays in tens of seconds.

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"decomine"
	"decomine/internal/decomp"
	"decomine/internal/engine"
	"decomine/internal/obs"
	"decomine/internal/pattern"
	"decomine/internal/server"
)

func pinnedOptions() decomine.Options {
	return decomine.Options{
		Threads:            4,
		Seed:               42,
		ProfileSampleEdges: 20000,
		ProfileTrials:      4000,
		MaxCandidates:      64,
	}
}

// pinnedFields are the exact outputs of one workload.
type pinnedFields struct {
	count        int64
	instructions int64
	// cache is the plan-cache hits, misses and negative hits.
	cache   [3]int64
	kernels map[string]int64
	// auxElemsOn is the set-kernel element work of the first query,
	// auxiliary tables included.
	auxElemsOn int64
	// elems is the set-kernel element work of the whole workload.
	elems int64
	// serve is the scripted replay's queries, cache hits and rewrite hits.
	serve [3]int64
	// batch is the shared census's instructions, the instructions of
	// counting every member's needs on their own, the shared hits and
	// the distinct subqueries.
	batch [4]int64
}

// pinnedWorkload is one table entry. query runs twice on one System
// (the second round hits the plan cache); custom replaces it for the
// serving and batch workloads, which make their own rounds.
type pinnedWorkload struct {
	name   string
	graph  func() *decomine.Graph
	query  func(*decomine.System) (int64, error)
	custom func(*testing.T, *decomine.System, *pinnedFields) int64
	// aux pins the first query's set-kernel element work.
	aux bool
	// elems pins the workload's set-kernel element work.
	elems bool
	want  pinnedFields
}

func TestPinnedWorkloads(t *testing.T) {
	if raceEnabled {
		t.Skip("pins are exact, not concurrency checks; ~10x slower under -race")
	}
	if testing.Short() {
		t.Skip("runs eleven workloads for ~25 s")
	}
	for _, w := range pinnedWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			if got := runPinned(t, w); !reflect.DeepEqual(got, w.want) {
				t.Errorf("pins drifted\n got %+v\nwant %+v", got, w.want)
			}
		})
	}
}

func pinnedWorkloads() []pinnedWorkload {
	gnp := func(n int, p float64, seed int64) func() *decomine.Graph {
		return func() *decomine.Graph { return decomine.GenerateGNP(n, p, seed) }
	}
	rmat := func(scale, ef int, seed int64) func() *decomine.Graph {
		return func() *decomine.Graph { return decomine.GenerateRMAT(scale, ef, seed) }
	}
	community := func(n, memberships, size int, seed int64) func() *decomine.Graph {
		return func() *decomine.Graph { return decomine.GenerateCommunity(n, memberships, size, seed) }
	}
	motifs := func(k int) func(*decomine.System) (int64, error) {
		return func(s *decomine.System) (int64, error) {
			counts, err := s.MotifCounts(k)
			var total int64
			for _, mc := range counts {
				total += mc.Count
			}
			return total, err
		}
	}
	return []pinnedWorkload{
		{name: "motif5-gnp", graph: gnp(220, 0.03, 42), query: motifs(5), want: pinnedFields{
			count: 344661, instructions: 718542, cache: [3]int64{68, 24, 0},
			kernels: map[string]int64{"merge": 69918, "words": 23432},
		}},
		{name: "motif6-gnp", graph: gnp(110, 0.04, 43), query: motifs(6), want: pinnedFields{
			count: 226211, instructions: 1760594, cache: [3]int64{394, 144, 0},
			kernels: map[string]int64{"merge": 163342, "words": 34048},
		}},
		{name: "motif5-rmat", graph: rmat(8, 6, 44), query: motifs(5), want: pinnedFields{
			count: 13437142, instructions: 9962420, cache: [3]int64{90, 40, 0},
			kernels: map[string]int64{"gallop": 33840, "merge": 922558, "words": 75400},
		}},
		{name: "fsm-gnp-labeled", query: pinnedFSM(40, 2),
			graph: func() *decomine.Graph { return decomine.GenerateGNP(300, 0.02, 45).WithRandomLabels(3, 45) },
			want: pinnedFields{
				count: 38654706463, instructions: 73610, cache: [3]int64{6, 6, 0},
			}},
		// Three edges bring labeled triangles: intersections of label
		// slices, whose element work elems pins.
		{name: "fsm3-gnp-labeled", query: pinnedFSM(60, 3), elems: true,
			graph: func() *decomine.Graph { return decomine.GenerateGNP(400, 0.03, 51).WithRandomLabels(3, 51) },
			want: pinnedFields{
				count: 279172879705, instructions: 3933684, cache: [3]int64{86, 86, 0},
				kernels: map[string]int64{"merge": 26064}, elems: 276292,
			}},
		{name: "constrained-rmat-labeled", query: pinnedConstrainedCycle,
			graph: func() *decomine.Graph { return decomine.GenerateRMAT(9, 6, 46).WithRandomLabels(4, 46) },
			want: pinnedFields{
				count: 3991, instructions: 679190, cache: [3]int64{1, 1, 0},
				kernels: map[string]int64{"gallop": 2456, "merge": 78456},
			}},
		{name: "motif5-hub-rmat", query: motifs(5),
			graph: func() *decomine.Graph { return decomine.GenerateRMAT(9, 8, 47).BuildHubIndex(48) },
			want: pinnedFields{
				count: 205061107, instructions: 35404482, cache: [3]int64{93, 43, 0},
				kernels: map[string]int64{"bitmap": 2565546, "bitmap-count": 430366, "gallop": 20132, "merge": 1517718, "words": 2020},
			}},
		{name: "motif4-mmap-rmat", graph: rmat(11, 8, 48), query: motifs(4), want: pinnedFields{
			count: 110482571, instructions: 2527912, cache: [3]int64{24, 10, 0},
			kernels: map[string]int64{"bitmap": 214888, "bitmap-count": 396, "gallop": 2792, "merge": 225626, "words": 4692},
		}},
		{name: "motif6-aux-community", graph: community(768, 6, 16, 49), aux: true, elems: true,
			query: func(s *decomine.System) (int64, error) { return s.PseudoCliqueCount(6, 1) },
			want: pinnedFields{
				count: 2521995, instructions: 44801662, cache: [3]int64{6, 4, 0},
				kernels:    map[string]int64{"words": 10119876},
				auxElemsOn: 13195668, elems: 26391336,
			}},
		{name: "serve-cache-rmat", graph: rmat(9, 6, 50), custom: pinnedServeScript, want: pinnedFields{
			count: 37026862, instructions: 15331, cache: [3]int64{3, 3, 0},
			kernels: map[string]int64{"merge": 2230},
			serve:   [3]int64{8, 4, 1},
		}},
		{name: "motif6-batch-community", graph: community(64, 2, 6, 49), custom: pinnedBatchCensus, want: pinnedFields{
			count: 11193236, instructions: 228758557, cache: [3]int64{3773, 157, 0},
			kernels: map[string]int64{"merge": 22698568, "words": 5470412},
			batch:   [4]int64{10207439, 208343679, 3374, 130},
		}},
	}
}

// runPinned runs w on a fresh System and reads its pinned fields: the
// System's plan-cache counters and the obs registry's engine deltas
// across the workload.
func runPinned(t *testing.T, w pinnedWorkload) pinnedFields {
	g := w.graph()
	sys := decomine.NewSystem(g, pinnedOptions())
	defer sys.Close()

	reg := obs.Default
	base := reg.Snapshot()
	var got pinnedFields
	if w.custom != nil {
		got.count = w.custom(t, sys, &got)
	} else {
		got.count = mustCount(t, w.query, sys)
		if w.aux {
			got.auxElemsOn = kernelElems(reg, base)
		}
		if again := mustCount(t, w.query, sys); again != got.count {
			t.Errorf("cached re-run disagrees: %d vs %d", again, got.count)
		}
	}
	got.instructions = reg.CounterDelta(base, "engine.instructions")
	if w.elems {
		got.elems = kernelElems(reg, base)
	}
	cs := sys.CacheStats()
	got.cache = [3]int64{cs.Hits, cs.Misses, cs.NegativeHits}
	for _, name := range engine.KernelNames {
		if d := reg.CounterDelta(base, "engine.kernel."+name); d != 0 {
			if got.kernels == nil {
				got.kernels = map[string]int64{}
			}
			got.kernels[name] = d
		}
	}
	return got
}

func mustCount(t *testing.T, q func(*decomine.System) (int64, error), s *decomine.System) int64 {
	t.Helper()
	c, err := q(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// kernelElems is the set-kernel element work since base.
func kernelElems(reg *obs.Registry, base obs.Snapshot) int64 {
	var sum int64
	for _, name := range engine.KernelNames {
		sum += reg.CounterDelta(base, "engine.kernel_elems."+name)
	}
	return sum
}

func pinnedFSM(minSupport int64, maxEdges int) func(*decomine.System) (int64, error) {
	return func(s *decomine.System) (int64, error) {
		fps, err := s.FSM(minSupport, maxEdges)
		if err != nil {
			return 0, err
		}
		// The frequent-pattern census and the total support together.
		total := int64(len(fps)) << 32
		for _, fp := range fps {
			total += fp.Support
		}
		return total, nil
	}
}

func pinnedConstrainedCycle(s *decomine.System) (int64, error) {
	return s.CountWithConstraints(decomine.MustParsePattern("0-1,1-2,2-3,3-0"),
		[]decomine.LabelConstraint{{Kind: decomine.AllDifferentLabels, Vertices: []int{0, 1, 2, 3}}})
}

// pinnedServeScript replays a fixed request script against the HTTP
// query front door: repeats hit the result cache, the vertex-induced
// chain-3 over cached edge-induced counts is a pure GEO rewrite
// satisfying vi(chain-3) = ei(chain-3) - 3·ei(triangle), and the
// disconnected pattern is composed. The returned count folds every
// response with its step index, so a count moving between steps shows.
func pinnedServeScript(t *testing.T, sys *decomine.System, got *pinnedFields) int64 {
	srv, err := server.New(server.Config{Systems: map[string]*decomine.System{"bench": sys}})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	steps := []struct {
		body              string
		cached, rewritten bool
	}{
		{`{"graph":"bench","pattern":"0-1,1-2"}`, false, false},
		{`{"graph":"bench","pattern":"0-1,1-2"}`, true, false},
		{`{"graph":"bench","pattern":"0-1,1-2,2-0"}`, false, false},
		{`{"graph":"bench","pattern":"0-1,1-2,2-0"}`, true, false},
		{`{"graph":"bench","pattern":"0-1,1-2","induced":true}`, false, true},
		{`{"graph":"bench","pattern":"0-1,1-2","induced":true}`, true, false},
		{`{"graph":"bench","pattern":"0-1,2-3"}`, false, false},
		{`{"graph":"bench","pattern":"0-1,2-3"}`, true, false},
	}
	counts := make([]int64, len(steps))
	var total int64
	for i, st := range steps {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(st.body)))
		if rec.Code != 200 {
			t.Fatalf("step %d %s: status %d: %s", i+1, st.body, rec.Code, rec.Body.String())
		}
		var r struct {
			Count              int64 `json:"count"`
			Cached             bool  `json:"cached"`
			Rewritten          bool  `json:"rewritten"`
			ExecutedSubqueries int   `json:"executed_subqueries"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if r.Cached != st.cached || r.Rewritten != st.rewritten {
			t.Errorf("step %d %s: cached=%v rewritten=%v, want %v/%v",
				i+1, st.body, r.Cached, r.Rewritten, st.cached, st.rewritten)
		}
		if (st.cached || st.rewritten) && r.ExecutedSubqueries != 0 {
			t.Errorf("step %d %s: executed %d subqueries on a hit", i+1, st.body, r.ExecutedSubqueries)
		}
		got.serve[0]++
		if r.Cached {
			got.serve[1]++
		}
		if r.Rewritten {
			got.serve[2]++
		}
		counts[i] = r.Count
		total += int64(i+1) * r.Count
	}
	if counts[4] != counts[0]-3*counts[2] {
		t.Errorf("rewrite identity broken: vi(chain-3)=%d, ei(chain-3)-3·ei(triangle)=%d",
			counts[4], counts[0]-3*counts[2])
	}
	for i := 0; i < len(counts); i += 2 {
		if counts[i] != counts[i+1] {
			t.Errorf("steps %d/%d disagree: %d vs %d", i+1, i+2, counts[i], counts[i+1])
		}
	}
	return total
}

// pinnedBatchCensus runs the 6-motif census three ways on one System: a
// cold shared batch, a warm shared batch (plans cached) and every
// member's needs counted on their own through CountPattern. All three
// must agree class by class; the returned count folds the census with
// class indices.
func pinnedBatchCensus(t *testing.T, sys *decomine.System, got *pinnedFields) int64 {
	members := decomine.MotifPatterns(6)
	census := func() *decomine.BatchResult {
		br, err := sys.CountPatterns(members, decomine.BatchOpts{Induced: true})
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	cold, warm := census(), census()
	if warm.Stats.Instructions != cold.Stats.Instructions || warm.Stats.SharedHits != cold.Stats.SharedHits {
		t.Errorf("warm batch accounting drifted: instructions %d/%d, shared hits %d/%d",
			warm.Stats.Instructions, cold.Stats.Instructions, warm.Stats.SharedHits, cold.Stats.SharedHits)
	}
	var total, unsharedInstructions int64
	for i, m := range members {
		rw, ok, err := decomp.RewriteQuery(m.Raw(), true)
		if err != nil || !ok {
			t.Fatalf("%s: no vertex-induced recipe (%v)", m, err)
		}
		needs := map[pattern.Code]int64{}
		for _, q := range rw.Needs {
			r, err := sys.CountPattern(decomine.RawPattern(q), decomine.QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			needs[q.Canonical()] = r.Count
			unsharedInstructions += r.Stats.Exec.Instructions
		}
		unshared, err := rw.Eval(needs)
		if err != nil {
			t.Fatal(err)
		}
		c := cold.Results[i].Count
		if warm.Results[i].Count != c || unshared != c {
			t.Errorf("%s: cold %d, warm %d, unshared %d", m, c, warm.Results[i].Count, unshared)
		}
		total += int64(i+1) * c
	}
	got.batch = [4]int64{cold.Stats.Instructions, unsharedInstructions, cold.Stats.SharedHits, int64(cold.Stats.Subqueries)}
	return total
}
