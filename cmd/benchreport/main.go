// Command benchreport runs the fixed DecoMine benchmark suite
// (internal/bench) and writes a machine-readable BENCH_<stamp>.json:
// per-workload throughput, worker balance, plan-cache hit rate, and the
// compile-vs-execute time split. With -baseline it additionally gates
// the fresh run against a pinned report (CI's bench-gate job) and exits
// nonzero on regression.
//
// Usage:
//
//	benchreport [-short] [-threads N] [-seed S] [-out dir | -o file]
//	            [-baseline results/bench_baseline.json] [-tolerance 0.25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"decomine/internal/bench"
	"decomine/internal/obs"
)

func main() {
	short := flag.Bool("short", false, "run the CI-sized suite")
	threads := flag.Int("threads", 4, "engine worker threads (fixed, for comparable reports)")
	seed := flag.Int64("seed", 42, "graph-generation and planner seed")
	outDir := flag.String("out", ".", "directory for BENCH_<stamp>.json")
	outFile := flag.String("o", "", "explicit output path (overrides -out)")
	baseline := flag.String("baseline", "", "pinned report to gate against")
	tolerance := flag.Float64("tolerance", 0.25, "relative tolerance for host-dependent metrics")
	overhead := flag.Bool("profiler-overhead", false, "run only the profiler-overhead smoke check (warns above -overhead-warn, never fails)")
	overheadWarn := flag.Float64("overhead-warn", 0.05, "warn when profiler overhead exceeds this fraction")
	calibration := flag.Bool("calibration-check", false, "run only the profile-guided calibration check (fails when calibrated ranking picks a worse plan)")
	traceOverhead := flag.Bool("trace-overhead", false, "run only the request-tracing overhead smoke check (warns above -overhead-warn, never fails)")
	slowQuery := flag.Duration("slow-query", 0, "record suite queries slower than this in the slow-query log (0 = off)")
	slowQueryLog := flag.String("slow-query-log", "", "write the slow-query log as JSON to this path when non-empty")
	flag.Parse()

	if *slowQuery > 0 {
		obs.SetSlowQueryThreshold(*slowQuery)
	}

	if *overhead || *calibration || *traceOverhead {
		runChecks(bench.Config{Short: *short, Threads: *threads, Seed: *seed}, *overhead, *calibration, *traceOverhead, *overheadWarn)
		return
	}

	rep, err := bench.Run(bench.Config{Short: *short, Threads: *threads, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	rep.Stamp = time.Now().UTC().Format("20060102T150405Z")

	path := *outFile
	if path == "" {
		path = filepath.Join(*outDir, "BENCH_"+rep.Stamp+".json")
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)

	if *slowQueryLog != "" {
		if err := dumpSlowQueries(*slowQueryLog); err != nil {
			fatal(err)
		}
	}

	for _, w := range rep.Workloads {
		fmt.Printf("%-26s count=%-12d %8.3g insn/s  balance=%.2f  cache=%.0f%%  compile=%.0f%%  wall=%s",
			w.Name, w.Count, w.Throughput, w.Balance.MaxOverMean,
			w.Cache.HitRate*100, w.CompileFrac*100,
			time.Duration(w.WallNS).Round(time.Millisecond))
		if bm := w.Kernels["bitmap"] + w.Kernels["bitmap-count"]; bm > 0 {
			fmt.Printf("  bitmap-kernels=%d", bm)
		}
		if w.HubSpeedup > 0 {
			fmt.Printf("  hub-speedup=%.2fx", w.HubSpeedup)
		}
		if w.MmapThroughputRatio > 0 {
			fmt.Printf("  mmap-ratio=%.2fx", w.MmapThroughputRatio)
		}
		if w.AuxSpeedup > 0 {
			fmt.Printf("  aux-speedup=%.2fx", w.AuxSpeedup)
		}
		if w.AuxElemsOff > 0 && w.AuxElemsOn > 0 {
			fmt.Printf("  aux-work=%.2fx", float64(w.AuxElemsOff)/float64(w.AuxElemsOn))
		}
		fmt.Println()
	}

	if *baseline == "" {
		return
	}
	base, err := readReport(*baseline)
	if err != nil {
		fatal(err)
	}
	gate := bench.Compare(rep, base, *tolerance)
	for _, w := range gate.Warnings {
		fmt.Fprintf(os.Stderr, "WARN: %s\n", w)
	}
	for _, f := range gate.Failures {
		fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
	}
	if !gate.OK() {
		fmt.Fprintf(os.Stderr, "bench gate: %d failure(s) vs %s\n", len(gate.Failures), *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench gate: ok vs %s\n", *baseline)
}

// runChecks executes the profiler-overhead, trace-overhead and/or
// calibration checks. Overhead above the warn threshold only warns
// (timing is host-dependent); a calibration that changes results or
// picks a plan with more instructions than static ranking fails.
func runChecks(cfg bench.Config, overhead, calibration, traceOverhead bool, overheadWarn float64) {
	if overhead {
		rep, err := bench.ProfilerOverhead(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatOverhead(rep))
		if rep.OverheadFrac > overheadWarn {
			fmt.Fprintf(os.Stderr, "WARN: profiler overhead %.1f%% exceeds %.1f%%\n",
				rep.OverheadFrac*100, overheadWarn*100)
		}
	}
	if traceOverhead {
		rep, err := bench.TraceOverhead(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatTraceOverhead(rep))
		if rep.OverheadFrac > overheadWarn {
			fmt.Fprintf(os.Stderr, "WARN: trace overhead %.1f%% exceeds %.1f%%\n",
				rep.OverheadFrac*100, overheadWarn*100)
		}
	}
	if calibration {
		rep, err := bench.CalibrationCheck(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatCalibration(rep))
		if rep.CalibratedInstructions > rep.StaticInstructions {
			fmt.Fprintf(os.Stderr, "FAIL: calibrated ranking executed %d instructions, static %d\n",
				rep.CalibratedInstructions, rep.StaticInstructions)
			os.Exit(1)
		}
	}
}

// dumpSlowQueries writes the accumulated slow-query log to path as
// indented JSON. It writes nothing (and removes no existing file) when
// the log is empty, so CI can upload the file with if-no-files-found:
// ignore and only produce an artifact for runs that had slow queries.
func dumpSlowQueries(path string) error {
	slow := obs.SlowQueries()
	if len(slow) == 0 {
		fmt.Fprintln(os.Stderr, "slow-query log: empty, not written")
		return nil
	}
	data, err := json.MarshalIndent(slow, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "slow-query log: %d record(s) -> %s\n", len(slow), path)
	return nil
}

func readReport(path string) (*bench.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
