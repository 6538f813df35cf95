package bench

import (
	"strings"
	"testing"
)

// tinyReport builds a two-workload report for gate tests.
func tinyReport() *Report {
	return &Report{
		Schema: 1, Threads: 4, Seed: 42, Short: true,
		Workloads: []Workload{
			{
				Name: "a", Count: 100, Instructions: 1000,
				ExecNS: 500_000_000, Throughput: 2e7,
				Balance: Balance{Max: 300, Mean: 250, MaxOverMean: 1.2},
				Cache:   Cache{Hits: 3, Misses: 3, HitRate: 0.5},
			},
			{
				Name: "b", Count: 7, Instructions: 400,
				ExecNS: 400_000_000, Throughput: 1e7,
				Balance: Balance{Max: 100, Mean: 100, MaxOverMean: 1.0},
				Cache:   Cache{Hits: 1, Misses: 1, HitRate: 0.5},
			},
		},
	}
}

func TestCompareIdentical(t *testing.T) {
	g := Compare(tinyReport(), tinyReport(), 0.25)
	if !g.OK() || len(g.Warnings) != 0 {
		t.Fatalf("identical reports should gate clean: %+v", g)
	}
}

func TestCompareDeterministicDriftFails(t *testing.T) {
	cur := tinyReport()
	cur.Workloads[0].Count++
	cur.Workloads[1].Instructions++
	cur.Workloads[1].Cache.Misses++
	g := Compare(cur, tinyReport(), 0.25)
	if g.OK() {
		t.Fatal("count/instruction/cache drift must fail")
	}
	if len(g.Failures) != 3 {
		t.Fatalf("failures = %v, want count+instructions+cache", g.Failures)
	}
}

func TestCompareUniformSlowdownOnlyWarns(t *testing.T) {
	// Doubling every engine time models a slower host: shares of the
	// suite's time are unchanged, so the gate passes with absolute-time
	// warnings.
	cur := tinyReport()
	for i := range cur.Workloads {
		cur.Workloads[i].Throughput /= 2
		cur.Workloads[i].ExecNS *= 2
	}
	g := Compare(cur, tinyReport(), 0.25)
	if !g.OK() {
		t.Fatalf("uniform slowdown must not fail: %v", g.Failures)
	}
	if len(g.Warnings) != 2 {
		t.Fatalf("warnings = %v, want one absolute-time warning per workload", g.Warnings)
	}
}

func TestCompareRelativeRegressionFails(t *testing.T) {
	// Workload a gets 3x slower while b is unchanged: a's share of the
	// suite's engine time grows and the gate must fail.
	cur := tinyReport()
	cur.Workloads[0].Throughput /= 3
	cur.Workloads[0].ExecNS *= 3
	g := Compare(cur, tinyReport(), 0.25)
	if g.OK() {
		t.Fatal("one-workload slowdown must fail the gate")
	}
	if !strings.Contains(g.Failures[0], "share of suite engine time") {
		t.Fatalf("failure = %q, want an engine-time share regression", g.Failures[0])
	}
}

func TestCompareInstructionRemovalPasses(t *testing.T) {
	// Workload b sheds most of its instructions in the same engine time,
	// and the baseline re-pins only the deterministic instruction total:
	// its instruction rate collapses, but it is no slower, so it passes.
	base := tinyReport()
	base.Workloads[1].Instructions = 100
	cur := tinyReport()
	cur.Workloads[1].Instructions = 100
	cur.Workloads[1].Throughput = 250
	if g := Compare(cur, base, 0.25); !g.OK() {
		t.Fatalf("instruction removal at equal engine time must not fail: %v", g.Failures)
	}
}

func TestCompareShortExecNeverFailsOnTime(t *testing.T) {
	base := tinyReport()
	base.Workloads[0].ExecNS = 2_000_000 // under the noise floor
	cur := tinyReport()
	cur.Workloads[0].ExecNS = 20_000_000
	g := Compare(cur, base, 0.25)
	if !g.OK() {
		t.Fatalf("sub-floor workload time must not fail: %v", g.Failures)
	}
}

func TestCompareKernelDrift(t *testing.T) {
	base := tinyReport()
	base.Workloads[0].Kernels = map[string]int64{"merge": 10, "bitmap": 5}
	cur := tinyReport()
	cur.Workloads[0].Kernels = map[string]int64{"merge": 10, "bitmap": 5}
	if g := Compare(cur, base, 0.25); !g.OK() {
		t.Fatalf("identical kernel counters should gate clean: %v", g.Failures)
	}
	cur.Workloads[0].Kernels["bitmap"] = 4
	if g := Compare(cur, base, 0.25); g.OK() {
		t.Fatal("kernel-counter drift must fail")
	}
	// A key vanishing entirely (router stopped picking a kernel) fails too.
	delete(cur.Workloads[0].Kernels, "bitmap")
	if g := Compare(cur, base, 0.25); g.OK() {
		t.Fatal("dropped kernel counter must fail")
	}
	// Old baselines without kernel counters are tolerated.
	base.Workloads[0].Kernels = nil
	if g := Compare(cur, base, 0.25); !g.OK() {
		t.Fatalf("nil baseline kernels must be tolerated: %v", g.Failures)
	}
}

func TestCompareConfigMismatch(t *testing.T) {
	cur := tinyReport()
	cur.Threads = 8
	if g := Compare(cur, tinyReport(), 0.25); g.OK() {
		t.Fatal("thread-count mismatch must fail")
	}
}

func TestCompareMissingAndExtraWorkloads(t *testing.T) {
	cur := tinyReport()
	cur.Workloads[0].Name = "c" // "a" vanished, "c" is new
	g := Compare(cur, tinyReport(), 0.25)
	if g.OK() {
		t.Fatal("missing baseline workload must fail")
	}
	if len(g.Warnings) == 0 {
		t.Fatal("new workload should warn")
	}
}

// TestRunWorkload runs the smallest real workload end to end and checks
// the registry-derived fields the acceptance criteria name: nonzero
// throughput, worker balance, and cache-hit rate.
func TestRunWorkload(t *testing.T) {
	cfg := Config{Short: true, Threads: 2, Seed: 42}
	w, err := runWorkload(cfg, workloadSpec{
		name:  "smoke",
		graph: gnp(80, 0.05, 1),
		run:   motifs(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Count <= 0 || w.Instructions <= 0 {
		t.Fatalf("count=%d instructions=%d, want > 0", w.Count, w.Instructions)
	}
	if w.Throughput <= 0 {
		t.Fatalf("throughput = %v, want > 0", w.Throughput)
	}
	if w.Balance.Max <= 0 || w.Balance.MaxOverMean < 1 {
		t.Fatalf("balance = %+v, want populated", w.Balance)
	}
	if w.Cache.HitRate <= 0 || w.Cache.Hits == 0 || w.Cache.Misses == 0 {
		t.Fatalf("cache = %+v, want hits and misses from the two rounds", w.Cache)
	}
	if w.CompileNS <= 0 || w.ExecNS <= 0 {
		t.Fatalf("compile=%d exec=%d ns, want > 0", w.CompileNS, w.ExecNS)
	}
}

func TestCompareBatchDrift(t *testing.T) {
	base := tinyReport()
	base.Workloads[0].BatchInstr = 1000
	base.Workloads[0].SerialInstr = 5000
	base.Workloads[0].BatchSharedHits = 40
	base.Workloads[0].BatchSubqueries = 12
	cur := tinyReport()
	cur.Workloads[0].BatchInstr = 1000
	cur.Workloads[0].SerialInstr = 5000
	cur.Workloads[0].BatchSharedHits = 40
	cur.Workloads[0].BatchSubqueries = 12
	if g := Compare(cur, base, 0.25); !g.OK() {
		t.Fatalf("identical batch counters should gate clean: %v", g.Failures)
	}
	cur.Workloads[0].BatchSharedHits = 39
	if g := Compare(cur, base, 0.25); g.OK() {
		t.Fatal("shared-hit drift must fail")
	}
	cur.Workloads[0].BatchSharedHits = 40
	cur.Workloads[0].BatchInstr = 999
	if g := Compare(cur, base, 0.25); g.OK() {
		t.Fatal("batch-instruction drift must fail")
	}
	// Baselines predating the batch workload are tolerated.
	base.Workloads[0].BatchInstr = 0
	if g := Compare(cur, base, 0.25); !g.OK() {
		t.Fatalf("zero baseline batch counters must be tolerated: %v", g.Failures)
	}
}

// TestRunBatchWorkload runs a small batched census end to end: the
// shared batch must beat the serial path on instructions, report shared
// hits, and populate the gated fields.
func TestRunBatchWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("batch workload runs a full census three times")
	}
	cfg := Config{Short: true, Threads: 2, Seed: 42}
	w, err := runWorkload(cfg, workloadSpec{
		name:  "batch-smoke",
		graph: community(48, 2, 5, 7),
		batch: batchMotifCensus(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Count <= 0 {
		t.Fatalf("count = %d, want > 0", w.Count)
	}
	if w.BatchInstr <= 0 || w.SerialInstr <= w.BatchInstr {
		t.Fatalf("batch=%d serial=%d instructions, want 0 < batch < serial", w.BatchInstr, w.SerialInstr)
	}
	if w.BatchSharedHits <= 0 || w.BatchSubqueries <= 0 {
		t.Fatalf("shared_hits=%d subqueries=%d, want > 0", w.BatchSharedHits, w.BatchSubqueries)
	}
	if w.BatchSpeedup <= 0 {
		t.Fatalf("batch speedup = %v, want > 0", w.BatchSpeedup)
	}
}

// TestRunHubWorkload runs a small hub-indexed workload and checks the
// kernel counters and the hub-vs-no-hub comparison plumbing: the bitmap
// path must fire, the no-hub rerun must agree on counts and plans, and
// the speedup ratio must be populated.
func TestRunHubWorkload(t *testing.T) {
	cfg := Config{Short: true, Threads: 2, Seed: 42}
	w, err := runWorkload(cfg, workloadSpec{
		name:       "hub-smoke",
		graph:      hubRMAT(8, 8, 32, 3),
		run:        motifs(4),
		hubCompare: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Kernels["bitmap"]+w.Kernels["bitmap-count"] == 0 {
		t.Fatalf("kernels = %v, want bitmap dispatches on a hub-indexed graph", w.Kernels)
	}
	if w.HubSpeedup <= 0 {
		t.Fatalf("hub speedup = %v, want > 0", w.HubSpeedup)
	}
}
