package bench

// Profiler-overhead smoke check and profile-guided calibration check,
// run by CI's bench-gate job alongside the suite. Both use the
// skewed-hub R-MAT workload (the suite's motif5-hub-rmat graph) at one
// thread with a warm plan cache, the configuration where timing noise
// is smallest and the profiler's clock reads are least hidden by
// scheduling.

import (
	"fmt"
	"time"

	"decomine"
	"decomine/internal/obs"
)

// OverheadReport compares a warm-cache workload with the sampling
// profiler off vs on.
type OverheadReport struct {
	// BaseNS / ProfiledNS are engine execution time (engine.exec_ns
	// registry deltas) for the unprofiled and profiled rounds.
	BaseNS     int64 `json:"base_ns"`
	ProfiledNS int64 `json:"profiled_ns"`
	// OverheadFrac is (ProfiledNS − BaseNS) / BaseNS; host-dependent.
	OverheadFrac float64 `json:"overhead_frac"`
	// AttributionFrac is the profile's TotalNS over the profiled rounds'
	// execution time — how much of the VM's wall time the sampled
	// windows accounted for.
	AttributionFrac float64 `json:"attribution_frac"`
	Rounds          int     `json:"rounds"`
}

const overheadRounds = 3

// ProfilerOverhead measures the sampling profiler's throughput cost on
// the suite's hub R-MAT motif workload: one warm-up round per System,
// then overheadRounds timed rounds each with profiling off and on.
func ProfilerOverhead(cfg Config) (*OverheadReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	g := hubRMAT(9, 8, 48, cfg.Seed+5)(cfg)
	reg := obs.Default

	run := func(profile bool) (int64, int64, *obs.Profile, error) {
		sys := decomine.NewSystem(g, decomine.Options{
			Threads:            1,
			Seed:               cfg.Seed,
			Profile:            profile,
			ProfileSampleEdges: 20000,
			ProfileTrials:      4000,
			MaxCandidates:      64,
		})
		defer sys.Close()
		// Warm-up: compile and cache every motif plan, touch the graph.
		count, err := sys.TotalMotifCount(5)
		if err != nil {
			return 0, 0, nil, err
		}
		profBase := obs.GlobalProfile()
		base := reg.Snapshot()
		for r := 0; r < overheadRounds; r++ {
			again, err := sys.TotalMotifCount(5)
			if err != nil {
				return 0, 0, nil, err
			}
			if again != count {
				return 0, 0, nil, fmt.Errorf("warm re-run disagrees: %d vs %d", again, count)
			}
		}
		return count, reg.CounterDelta(base, "engine.exec_ns"), obs.GlobalProfile().Diff(profBase), nil
	}

	baseCount, baseNS, _, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("bench: overhead baseline: %w", err)
	}
	profCount, profNS, prof, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("bench: overhead profiled: %w", err)
	}
	if baseCount != profCount {
		return nil, fmt.Errorf("bench: profiling changed the count: %d vs %d", profCount, baseCount)
	}
	rep := &OverheadReport{BaseNS: baseNS, ProfiledNS: profNS, Rounds: overheadRounds}
	if baseNS > 0 {
		rep.OverheadFrac = float64(profNS-baseNS) / float64(baseNS)
	}
	if profNS > 0 && prof != nil {
		rep.AttributionFrac = float64(prof.TotalNS) / float64(profNS)
	}
	return rep, nil
}

// TraceOverheadReport compares a warm-cache workload with request
// tracing off vs on (spans threaded through every query, retention
// sampled out), the cost a production server pays for always-on span
// creation.
type TraceOverheadReport struct {
	// BaseNS / TracedNS are engine execution time (engine.exec_ns
	// registry deltas) for the untraced and traced rounds.
	BaseNS   int64 `json:"base_ns"`
	TracedNS int64 `json:"traced_ns"`
	// OverheadFrac is (TracedNS − BaseNS) / BaseNS; host-dependent.
	OverheadFrac float64 `json:"overhead_frac"`
	Rounds       int     `json:"rounds"`
}

// TraceOverhead measures the span tracer's throughput cost on the hub
// R-MAT motif workload: one warm-up round, then overheadRounds timed
// rounds each without and with a request span threaded through every
// query. Retention sampling is forced to 0 (the serving default for
// busy deployments), so the measured cost is span creation and
// attribute recording alone — the tail-retention decision still runs,
// it just keeps nothing.
func TraceOverhead(cfg Config) (*TraceOverheadReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	g := hubRMAT(9, 8, 48, cfg.Seed+5)(cfg)
	reg := obs.Default
	pats := decomine.MotifPatterns(5)

	prevSampling := obs.TraceSampling()
	obs.SetTraceSampling(0)
	defer obs.SetTraceSampling(prevSampling)

	run := func(traced bool) (int64, int64, error) {
		sys := decomine.NewSystem(g, decomine.Options{
			Threads:       1,
			Seed:          cfg.Seed,
			MaxCandidates: 64,
		})
		defer sys.Close()
		round := func() (int64, error) {
			var span *decomine.TraceSpan
			if traced {
				span = decomine.StartTraceSpan("bench.trace-overhead")
				span.SetTenant("bench")
				defer span.End()
			}
			var total int64
			for _, p := range pats {
				r, err := sys.CountPattern(p, decomine.QueryOpts{Span: span})
				if err != nil {
					return 0, err
				}
				total += r.Count
			}
			return total, nil
		}
		// Warm-up: compile and cache every motif plan, touch the graph.
		count, err := round()
		if err != nil {
			return 0, 0, err
		}
		base := reg.Snapshot()
		for r := 0; r < overheadRounds; r++ {
			again, err := round()
			if err != nil {
				return 0, 0, err
			}
			if again != count {
				return 0, 0, fmt.Errorf("warm re-run disagrees: %d vs %d", again, count)
			}
		}
		return count, reg.CounterDelta(base, "engine.exec_ns"), nil
	}

	baseCount, baseNS, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("bench: trace-overhead baseline: %w", err)
	}
	tracedCount, tracedNS, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("bench: trace-overhead traced: %w", err)
	}
	if baseCount != tracedCount {
		return nil, fmt.Errorf("bench: tracing changed the count: %d vs %d", tracedCount, baseCount)
	}
	rep := &TraceOverheadReport{BaseNS: baseNS, TracedNS: tracedNS, Rounds: overheadRounds}
	if baseNS > 0 {
		rep.OverheadFrac = float64(tracedNS-baseNS) / float64(baseNS)
	}
	return rep, nil
}

// CalibrationReport records the profile-guided calibration check: the
// same workload ranked with static weights vs weights measured from a
// profiled run of it.
type CalibrationReport struct {
	Count int64 `json:"count"`
	// StaticInstructions / CalibratedInstructions are the workload's
	// executed-instruction deltas under each ranking; deterministic for
	// a fixed plan choice.
	StaticInstructions     int64 `json:"static_instructions"`
	CalibratedInstructions int64 `json:"calibrated_instructions"`
	// Units are the measured weights the calibrated ranking used.
	Units decomine.Calibration `json:"calibration"`
	// PlanChanged reports whether calibration picked any different plan
	// (instruction counts diverged).
	PlanChanged bool `json:"plan_changed"`
}

// CalibrationCheck profiles the hub R-MAT motif workload, fits unit
// weights to the accumulated profile, re-plans the workload on a fresh
// System under the calibrated ranking, and cross-checks that the counts
// are identical. The caller gates on CalibratedInstructions <=
// StaticInstructions (calibration must never pick a worse plan on the
// workload it was trained on).
func CalibrationCheck(cfg Config) (*CalibrationReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	g := hubRMAT(9, 8, 48, cfg.Seed+5)(cfg)
	reg := obs.Default
	opts := decomine.Options{
		Threads:            1,
		Seed:               cfg.Seed,
		ProfileSampleEdges: 20000,
		ProfileTrials:      4000,
		MaxCandidates:      64,
	}

	// Round 1: static ranking, profiled, threads=1 (the measurement the
	// calibrator trains on).
	statOpts := opts
	statOpts.Profile = true
	static := decomine.NewSystem(g, statOpts)
	defer static.Close()
	profBase := obs.GlobalProfile()
	base := reg.Snapshot()
	count, err := static.TotalMotifCount(5)
	if err != nil {
		return nil, fmt.Errorf("bench: calibration static round: %w", err)
	}
	staticInstr := reg.CounterDelta(base, "engine.instructions")
	prof := obs.GlobalProfile().Diff(profBase)

	cal, err := static.Calibrate(prof)
	if err != nil {
		return nil, fmt.Errorf("bench: calibration fit: %w", err)
	}

	// Round 2: fresh System (empty plan cache) ranking with the
	// measured weights.
	calibrated := decomine.NewSystem(g, opts)
	defer calibrated.Close()
	calibrated.SetCalibration(cal)
	base = reg.Snapshot()
	calCount, err := calibrated.TotalMotifCount(5)
	if err != nil {
		return nil, fmt.Errorf("bench: calibration calibrated round: %w", err)
	}
	calInstr := reg.CounterDelta(base, "engine.instructions")
	if calCount != count {
		return nil, fmt.Errorf("bench: calibrated ranking changed the count: %d vs %d", calCount, count)
	}
	return &CalibrationReport{
		Count:                  count,
		StaticInstructions:     staticInstr,
		CalibratedInstructions: calInstr,
		Units:                  *cal,
		PlanChanged:            calInstr != staticInstr,
	}, nil
}

// FormatOverhead renders the overhead report for the CI log.
func FormatOverhead(r *OverheadReport) string {
	return fmt.Sprintf("profiler overhead: base=%s profiled=%s overhead=%.1f%% attribution=%.1f%% (%d rounds)",
		time.Duration(r.BaseNS).Round(time.Millisecond),
		time.Duration(r.ProfiledNS).Round(time.Millisecond),
		r.OverheadFrac*100, r.AttributionFrac*100, r.Rounds)
}

// FormatTraceOverhead renders the trace-overhead report for the CI log.
func FormatTraceOverhead(r *TraceOverheadReport) string {
	return fmt.Sprintf("trace overhead: base=%s traced=%s overhead=%.1f%% (%d rounds, sampling off)",
		time.Duration(r.BaseNS).Round(time.Millisecond),
		time.Duration(r.TracedNS).Round(time.Millisecond),
		r.OverheadFrac*100, r.Rounds)
}

// FormatCalibration renders the calibration report for the CI log.
func FormatCalibration(r *CalibrationReport) string {
	verdict := "kept the static plan"
	if r.PlanChanged {
		verdict = "changed the plan"
	}
	return fmt.Sprintf("calibration: count=%d static-instr=%d calibrated-instr=%d (%s; merge=%.2f gallop=%.2f bitmap=%.2f, baseline %.2f ns/instr)",
		r.Count, r.StaticInstructions, r.CalibratedInstructions, verdict,
		r.Units.Units.MergeElem, r.Units.Units.GallopElem, r.Units.Units.BitmapElem,
		r.Units.BaselineNSPerInstr)
}
