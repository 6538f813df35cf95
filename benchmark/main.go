// Command benchmark is the performance ledger: it runs one named
// workload against the system's public entry points, checks the
// answers, and prints every metric by name. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	threads  int
	sz       *sizes
	// minJobs is the fewest jobs a library run times, however long
	// they take.
	minJobs int
	// decomined is the daemon binary; workDir is where the serve
	// workload may write its graph files.
	decomined, workDir string
	start              time.Time
}

// result is what one run measured.
type result struct {
	attempted, failed int
	// metrics is the result line's metric set; extra holds what only
	// some workloads measure and is printed as text and kept in -out.
	metrics, extra metrics
	notes          []string
	failures       []string
	// harnessSelf and serverSelf are self time in ms per span name: of the
	// harness's own spans around layer calls, and of the daemon's span
	// trees. spans are the harness spans themselves.
	harnessSelf, serverSelf map[string]float64
	spans                   []span
}

func newResult() *result { return &result{metrics: metrics{}, extra: metrics{}} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation; the first few are kept to print.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// endToEnd fills in the metrics a user of the system sees.
func (r *result) endToEnd(setupS float64, latMS []float64, wall time.Duration, rssMB float64) {
	r.metrics.set("setup_s", setupS, "s")
	r.metrics.set("lat_p50_ms", median(latMS), "ms")
	r.metrics.set("jobs_per_s", float64(len(latMS))/wall.Seconds(), "1/s")
	r.metrics.set("peak_rss_mb", rssMB, "MB")
	r.note("%d timed jobs in %.2f s", len(latMS), wall.Seconds())
}

// checkPin holds the default seed's full-size answer to its pin.
func (r *result) checkPin(name string, cfg *config, got answer) {
	want, ok := expected[name]
	if !ok || cfg.seed != defaultSeed || cfg.sz != &fullSize {
		return
	}
	if got.total() != want.Total || len(got) != want.Keys {
		r.fail("answer of seed %d is %d patterns totalling %d, pinned %d totalling %d",
			cfg.seed, len(got), got.total(), want.Keys, want.Total)
	}
}

func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, set := range []metrics{r.metrics, r.extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-28s %16.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	for _, f := range r.failures {
		fmt.Println("FAIL:", f)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	fmt.Println(string(line))
}

// run dispatches one workload.
func run(cfg *config) (*result, error) {
	for i := range libWorkloads {
		if w := &libWorkloads[i]; w.name == cfg.workload {
			if cfg.trace {
				return traceLibrary(w, cfg)
			}
			return runLibrary(w, cfg)
		}
	}
	if cfg.workload == serveName {
		if cfg.trace {
			return traceServe(cfg)
		}
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

func main() {
	cfg := &config{start: time.Now(), sz: &fullSize, minJobs: 3, threads: runtime.NumCPU()}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "how long to run timed jobs")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.decomined, "decomined", "", "path of the built decomined binary (serve workload)")
	flag.StringVar(&cfg.workDir, "workdir", "", "directory for the serve workload's temporary files")
	out := flag.String("out", "", "also write the full result, spans included, to this JSON file")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace != 0

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *out != "" {
		full, _ := json.MarshalIndent(map[string]any{
			"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
			"attempted": res.attempted, "failed": res.failed, "failures": res.failures,
			"metrics": res.metrics, "extra": res.extra, "notes": res.notes,
			"harness_self_ms": res.harnessSelf, "server_self_ms": res.serverSelf, "spans": res.spans,
		}, "", " ")
		if err := os.WriteFile(*out, full, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	res.print()
	if res.failed > 0 {
		os.Exit(1)
	}
}
