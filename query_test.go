package decomine

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"decomine/internal/obs"
)

// TestProfiledQueryAndSlowLog: a profiled System attaches the sampling
// profile to per-run stats, and queries over the slow threshold land in
// the slow-query log carrying plan, kernel mix, and profile.
func TestProfiledQueryAndSlowLog(t *testing.T) {
	obs.ResetSlowQueries()
	obs.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	defer obs.SetSlowQueryThreshold(0)
	defer obs.ResetSlowQueries()

	g := GenerateRMAT(9, 8, 4321).BuildHubIndex(32)
	sys := NewSystem(g, Options{Threads: 1, Profile: true, CostModel: CostLocality})
	defer sys.Close()

	res, err := sys.CountPattern(MustParsePattern("0-1,1-2,2-0"), QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Stats.Exec.Profile
	if p == nil || p.TotalNS <= 0 || p.Samples <= 0 {
		t.Fatalf("profiled query carries no profile: %+v", p)
	}
	var ops int64
	for _, c := range p.Ops {
		ops += c
	}
	if ops != res.Stats.Exec.Instructions {
		t.Fatalf("profile op total %d != run instructions %d", ops, res.Stats.Exec.Instructions)
	}

	slow := obs.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow-query record at a 1ns threshold")
	}
	sq := slow[len(slow)-1]
	if len(sq.Name) < len("count:") || sq.Name[:6] != "count:" {
		t.Fatalf("slow query name = %q", sq.Name)
	}
	if sq.Plan == "" || sq.Disassembly == "" {
		t.Fatalf("slow query missing plan/disassembly: %+v", sq)
	}
	if len(sq.Kernels) == 0 {
		t.Fatal("slow query missing kernel mix")
	}
	if sq.Profile == nil {
		t.Fatal("slow query missing profile (profiling was on)")
	}
	if sq.DurationNS <= 0 || sq.QueryID == 0 {
		t.Fatalf("slow query metadata: %+v", sq)
	}

	// The record's kernel mix is the run's own, and its query ID is the
	// one the live-query registry issued: a later query gets a later ID.
	if !reflect.DeepEqual(sq.Kernels, res.Stats.Exec.Kernels) {
		t.Fatalf("slow-log kernels %v != run kernels %v", sq.Kernels, res.Stats.Exec.Kernels)
	}
	if _, err := sys.CountPattern(MustParsePattern("0-1,1-2"), QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	slow = obs.SlowQueries()
	if next := slow[len(slow)-1]; next.QueryID <= sq.QueryID {
		t.Fatalf("query IDs not increasing: %d then %d", sq.QueryID, next.QueryID)
	}
}

// TestCountPatternAsync: the handle's progress is monotone, ends at
// exactly 1.0, the ETA transitions unknown→finite→0, and the result
// matches the synchronous API.
func TestCountPatternAsync(t *testing.T) {
	g := GenerateRMAT(11, 8, 77)
	sys := NewSystem(g, Options{Threads: 2, CostModel: CostLocality})
	defer sys.Close()
	p := MustParsePattern("0-1,1-2,2-0")

	want, err := sys.GetPatternCount(p)
	if err != nil {
		t.Fatal(err)
	}

	h := sys.CountPatternAsync(p, QueryOpts{})
	prev := 0.0
	for {
		f := h.Progress()
		if f < prev || f < 0 || f > 1 {
			t.Fatalf("progress regressed or out of range: %v -> %v", prev, f)
		}
		prev = f
		select {
		case <-h.Done():
		default:
			if f > 0 && f < 1 {
				if eta := h.ETA(); eta < 0 {
					t.Fatalf("ETA unknown at progress %v", f)
				}
			}
			time.Sleep(20 * time.Microsecond)
			continue
		}
		break
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("async count %d != sync %d", res.Count, want)
	}
	if f := h.Progress(); f != 1.0 {
		t.Fatalf("final progress %v, want exactly 1.0", f)
	}
	if eta := h.ETA(); eta != 0 {
		t.Fatalf("finished ETA = %v, want 0", eta)
	}
}

// TestCountPatternAsyncCancel: canceling an in-flight query returns
// ErrCanceled promptly even mid-execution.
func TestCountPatternAsyncCancel(t *testing.T) {
	g := GenerateRMAT(12, 10, 5)
	sys := NewSystem(g, Options{Threads: 2, CostModel: CostLocality})
	defer sys.Close()

	h := sys.CountPatternAsync(MustParsePattern("0-1,0-2,0-3,1-2,1-3,2-3"), QueryOpts{}) // clique-4
	h.Cancel()
	res, err := h.Wait()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled query returned (%v, %v), want ErrCanceled", res, err)
	}
	if res != nil {
		t.Fatal("canceled query returned a result")
	}
}

// TestCalibratedRankingDifferential is the calibration safety property:
// whatever weights the calibrator produces — measured ones from a real
// profiled run, or adversarially skewed ones — a calibrated System
// returns bit-identical counts to the static System on every pattern,
// because calibration only reorders the candidate ranking.
func TestCalibratedRankingDifferential(t *testing.T) {
	g := GenerateRMAT(9, 8, 4321).BuildHubIndex(32)
	patterns := []string{"clique-3", "cycle-4", "chain-4", "tailed-triangle", "clique-4"}

	static := NewSystem(g, Options{Threads: 1, Profile: true, CostModel: CostLocality})
	defer static.Close()
	base := obs.GlobalProfile()
	want := map[string]int64{}
	for _, name := range patterns {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := static.GetPatternCount(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = c
	}
	prof := obs.GlobalProfile().Diff(base)

	cal, err := static.Calibrate(prof)
	if err != nil {
		t.Fatalf("calibration from a profiled workload failed: %v", err)
	}
	if cal.BaselineNSPerInstr <= 0 || cal.Units.MergeElem <= 0 || cal.Units.BitmapElem <= 0 {
		t.Fatalf("implausible calibration: %+v", cal)
	}

	skewed := &Calibration{Units: cal.Units}
	skewed.Units.MergeElem = 16
	skewed.Units.BitmapElem = 1.0 / 16
	skewed.Units.GallopElem = 4

	for i, c := range []*Calibration{cal, skewed} {
		sys := NewSystem(g, Options{Threads: 1, CostModel: CostLocality})
		sys.SetCalibration(c)
		for _, name := range patterns {
			p, _ := PatternByName(name)
			got, err := sys.GetPatternCount(p)
			if err != nil {
				t.Fatalf("calibration %d, %s: %v", i, name, err)
			}
			if got != want[name] {
				t.Fatalf("calibration %d changed the count of %s: %d != %d", i, name, got, want[name])
			}
		}
		sys.Close()
	}
}
