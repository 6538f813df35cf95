package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"decomine/internal/baseline"
	"decomine/internal/graph"
	"decomine/internal/pattern"
)

// manifest is the part of BENCHMARK.json the harness must agree with.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// smallConfig runs a workload at the oracle's sizes: two jobs for a
// library workload, a fraction of a second of requests for the served.
func smallConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload, seed: 7, seconds: 300 * time.Millisecond, trace: trace, threads: 2,
		sz: &smallSize, minJobs: 2, start: time.Now(),
		decomined: buildDaemon(t), workDir: t.TempDir(),
	}
}

var daemonPath string

// buildDaemon compiles cmd/decomined once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if daemonPath != "" {
		return daemonPath
	}
	dir, err := os.MkdirTemp("", "ledger-test-")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "decomined")
	if out, err := exec.Command("go", "build", "-o", path, "decomine/cmd/decomined").CombinedOutput(); err != nil {
		t.Fatalf("building decomined: %v\n%s", err, out)
	}
	daemonPath = path
	return path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonPath != "" {
		os.RemoveAll(filepath.Dir(daemonPath))
	}
	os.Exit(code)
}

// checkMetrics holds a result's metric set to the manifest's names and
// units: the result line must carry exactly the declared metrics.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, w := range want {
		got, ok := res.metrics[w.Name]
		if !ok {
			t.Errorf("metric %s is declared in BENCHMARK.json but not reported", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
	if len(res.metrics) != len(want) {
		var names []string
		for n := range res.metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%d metrics reported, %d declared; reported: %v", len(res.metrics), len(want), names)
	}
}

// TestWorkloads runs every workload of the manifest end to end at the
// oracle's sizes, untraced and traced: the oracle check, cross-job
// equality, the staged replay's count and instruction equality, the
// daemon's launch and teardown, and the shape of the result.
func TestWorkloads(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(libWorkloads)+1 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(m.Workloads), len(libWorkloads)+1)
	}
	for _, w := range m.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smallConfig(t, w.Name, trace)
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted < 1 {
					t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.failures)
				}
				if trace {
					checkMetrics(t, res, m.PerLayer)
					if res.metrics["trace.staged_match"].Value != 1 {
						t.Error("the staged replay did not reproduce the job")
					}
					if res.metrics["engine.instructions"].Value <= 0 || len(res.spans) == 0 {
						t.Error("the staged replay executed or recorded nothing")
					}
				} else {
					checkMetrics(t, res, m.EndToEnd)
					for n, v := range res.metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", n, v.Value)
						}
					}
				}
				// The served workload must leave nothing behind.
				if left, _ := os.ReadDir(cfg.workDir); len(left) != 0 {
					t.Errorf("%d entries left in the work directory", len(left))
				}
			})
		}
	}
}

// TestDaemonStoppedOnFailure starts the daemon on a graph file that
// does not exist: set-up must fail, and the child must have been waited
// for.
func TestDaemonStoppedOnFailure(t *testing.T) {
	cfg := smallConfig(t, serveName, false)
	d, err := startDaemon(cfg, cfg.sz, filepath.Join(cfg.workDir, "missing.txt"), []string{"g0"}, 0)
	if err == nil {
		d.stop()
		t.Fatal("decomined started on a missing graph file")
	}
}

// TestWrongCountFails checks that a served count that moves between two
// requests for one key is counted as a failure, not averaged away.
func TestWrongCountFails(t *testing.T) {
	gen, err := newScriptGen(&smallSize, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient("", gen)
	cl.counts[gen.pool[0].key] = 41
	var res result
	env := &serveEnv{clients: []*client{cl, newClient("", gen)}}
	env.clients[1].counts[gen.pool[0].key] = 42
	env.merged(&res)
	if res.failed != 1 {
		t.Fatalf("two clients disagreeing on a count gave %d failures, want 1", res.failed)
	}
}

// TestBruteCountAgainstBaseline holds the harness's own matcher to the
// repository's pattern-oblivious census where both apply.
func TestBruteCountAgainstBaseline(t *testing.T) {
	g := graph.RMAT(6, 5, 3)
	for _, p := range append(pattern.ConnectedPatterns(4), pattern.ConnectedPatterns(3)...) {
		vi, err := baseline.ObliviousPatternCount(g, p)
		if err != nil {
			t.Fatal(err)
		}
		ei, err := baseline.ObliviousEdgeInducedCount(g, p)
		if err != nil {
			t.Fatal(err)
		}
		gotVI, err := bruteCount(g, p, true)
		if err != nil {
			t.Fatal(err)
		}
		gotEI, err := bruteCount(g, p, false)
		if err != nil {
			t.Fatal(err)
		}
		if gotVI != vi || gotEI != ei {
			t.Errorf("%s: brute force %d vi / %d ei, census %d / %d", p, gotVI, gotEI, vi, ei)
		}
	}
}

// TestScriptRepeats checks seed discipline: one seed gives one script.
func TestScriptRepeats(t *testing.T) {
	script := func(seed int64) string {
		gen, err := newScriptGen(&fullSize, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		var ih inputHash
		for i := 0; i < 500; i++ {
			for _, r := range gen.next() {
				ih.add(r.class, r.path, string(r.body))
			}
		}
		return ih.String()
	}
	if script(3) != script(3) {
		t.Error("one seed gave two scripts")
	}
	if script(3) == script(4) {
		t.Error("two seeds gave one script")
	}
}
