package cost

import (
	"math"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/graph"
	"decomine/internal/obs"
	"decomine/internal/sampling"
)

// legacyCost reproduces the pre-calibration estimator formulas exactly
// for the locality model (the unweighted original cost sites), so the
// bit-identity of DefaultUnits can be asserted against an independent
// implementation rather than against the weighted code itself.
func legacyLocalityCost(st GraphStats, plocal float64, prog *ast.Program) float64 {
	e := legacyEstimator{st: st, plocal: plocal}
	e.size = make([]float64, prog.NumSets)
	e.fromNbr = make([]bool, prog.NumSets)
	e.walk(prog.Root.Body, 1)
	return e.cost
}

type legacyEstimator struct {
	st      GraphStats
	plocal  float64
	size    []float64
	fromNbr []bool
	cost    float64
}

func (e *legacyEstimator) walk(body []*ast.Node, iters float64) {
	for _, n := range body {
		switch n.Kind {
		case ast.KLoop:
			perIter := e.size[n.Over]
			if perIter < 0 {
				perIter = 0
			}
			total := iters * perIter
			e.cost += total
			e.walk(n.Body, math.Max(total, 1e-12))
		case ast.KSetDef:
			e.defineSet(n, iters)
		case ast.KScalarDef, ast.KScalarReset, ast.KScalarAccum, ast.KGlobalAdd:
			e.cost += iters
		case ast.KHashClear:
			e.cost += iters
		case ast.KHashInc, ast.KHashGet:
			e.cost += 2 * iters
		case ast.KEmit:
			e.cost += 2 * iters
		case ast.KCondPos:
			e.walk(n.Body, iters)
		}
	}
}

func (e *legacyEstimator) hubProbOf(a, b int) float64 {
	p := e.st.HubProb
	if p <= 0 {
		return 0
	}
	switch {
	case e.fromNbr[a] && e.fromNbr[b]:
		return 1 - (1-p)*(1-p)
	case e.fromNbr[a] || e.fromNbr[b]:
		return p
	}
	return 0
}

func (e *legacyEstimator) defineSet(n *ast.Node, iters float64) {
	var sz float64
	var nb bool
	switch n.Op {
	case ast.OpAll:
		sz, nb = e.st.N, false
	case ast.OpNeighbors:
		sz, nb = e.st.AvgDeg, true
	case ast.OpIntersect:
		a, b := e.size[n.A], e.size[n.B]
		if e.fromNbr[n.A] && e.fromNbr[n.B] {
			sz = math.Min(a, b) * e.plocal
		} else {
			sz = a * b / math.Max(e.st.N, 1)
		}
		nb = e.fromNbr[n.A] || e.fromNbr[n.B]
		if p := e.hubProbOf(n.A, n.B); p > 0 {
			e.cost += iters * (p*math.Min(a, b) + (1-p)*(a+b))
		} else {
			e.cost += iters * (a + b)
		}
	case ast.OpSubtract:
		a, b := e.size[n.A], e.size[n.B]
		frac := 1 - b/math.Max(e.st.N, 1)
		if frac < 0.05 {
			frac = 0.05
		}
		sz, nb = a*frac, e.fromNbr[n.A]
		if e.fromNbr[n.B] && e.st.HubProb > 0 {
			p := e.st.HubProb
			e.cost += iters * (p*a + (1-p)*(a+b))
		} else {
			e.cost += iters * (a + b)
		}
	case ast.OpRemove:
		sz, nb = math.Max(e.size[n.A]-1, 0), e.fromNbr[n.A]
		e.cost += iters * e.size[n.A]
	case ast.OpTrimAbove, ast.OpTrimBelow:
		sz, nb = e.size[n.A]/2, e.fromNbr[n.A]
		e.cost += iters * math.Log2(math.Max(e.size[n.A], 2))
	case ast.OpCopy:
		sz, nb = e.size[n.A], e.fromNbr[n.A]
		e.cost += iters * e.size[n.A]
	case ast.OpFilterLabel, ast.OpFilterLabelOfVar:
		sz, nb = e.size[n.A]/e.st.Labels, e.fromNbr[n.A]
		e.cost += iters * e.size[n.A]
	case ast.OpFilterLabelNotOfVar:
		sz, nb = e.size[n.A]*(1-1/e.st.Labels), e.fromNbr[n.A]
		e.cost += iters * e.size[n.A]
	}
	if sz < 0 {
		sz = 0
	}
	e.size[n.Dst] = sz
	e.fromNbr[n.Dst] = nb
}

// TestDefaultUnitsBitIdentical: under DefaultUnits the weighted
// estimator must produce bit-for-bit the same float as the original
// unweighted formulas, on hubbed and hubless stats.
func TestDefaultUnitsBitIdentical(t *testing.T) {
	for _, st := range []GraphStats{
		{N: 10000, AvgDeg: 20, Labels: 1},
		{N: 10000, AvgDeg: 20, Labels: 1, HubProb: 0.35},
		{N: 512, AvgDeg: 48, Labels: 3, HubProb: 0.8},
	} {
		m := NewLocality(st, 0.25)
		for k := 2; k <= 5; k++ {
			prog := buildNest(k)
			got := m.Cost(prog)
			want := legacyLocalityCost(st, 0.25, prog)
			if got != want {
				t.Fatalf("nest %d, stats %+v: weighted cost %v != legacy %v (diff %g)",
					k, st, got, want, got-want)
			}
		}
	}
}

// TestCalibratedUnitsChangeCostsNotOrderInvariance: a calibration with
// non-trivial weights must actually move the estimates, while
// ApplyCalibration with nil must leave the model untouched.
func TestApplyCalibration(t *testing.T) {
	st := GraphStats{N: 10000, AvgDeg: 20, Labels: 1, HubProb: 0.35}
	base := NewLocality(st, 0.25)
	prog := buildNest(4)
	c0 := base.Cost(prog)

	if got := ApplyCalibration(base, nil); got != base {
		t.Fatal("nil calibration must return the model unchanged")
	}

	cal := &Calibration{Units: DefaultUnits()}
	cal.Units.MergeElem = 4
	calibrated := ApplyCalibration(base, cal)
	if calibrated == base {
		t.Fatal("calibration must return a fresh model")
	}
	c1 := calibrated.Cost(prog)
	if !(c1 > c0) {
		t.Fatalf("MergeElem=4 did not increase a merge-heavy estimate: %v vs %v", c1, c0)
	}
	// The original model still ranks with defaults.
	if again := base.Cost(prog); again != c0 {
		t.Fatalf("calibration mutated the source model: %v != %v", again, c0)
	}

	// All three models accept calibration.
	for _, m := range []Model{
		NewAutoMine(st),
		NewLocality(st, 0.25),
		NewApproxMining(st, sampling.BuildProfile(graph.GNP(50, 0.1, 1),
			sampling.Options{SampleEdges: 50, Trials: 50, MaxSize: 3, Seed: 1})),
	} {
		if ApplyCalibration(m, cal) == m {
			t.Fatalf("model %s did not accept calibration", m.Name())
		}
	}
}

// TestGallopModeling: with GallopElem on, a lopsided intersect prices
// as min·(log2(ratio)+1) instead of a+b; a balanced one still merges.
func TestGallopModeling(t *testing.T) {
	e := estimator{units: DefaultUnits()}
	if got := e.arrayPassCost(10, 1000); got != 1010 {
		t.Fatalf("gallop off: %v, want 1010", got)
	}
	e.units.GallopElem = 2
	want := 10 * (math.Log2(100) + 1) * 2
	if got := e.arrayPassCost(10, 1000); got != want {
		t.Fatalf("gallop on, lopsided: %v, want %v", got, want)
	}
	if got := e.arrayPassCost(1000, 10); got != want {
		t.Fatal("arrayPassCost not symmetric")
	}
	// Below the VM's dispatch threshold the merge path is kept.
	if got := e.arrayPassCost(100, 1000); got != 1100 {
		t.Fatalf("gallop on, balanced: %v, want merge 1100", got)
	}
}

func calProfile() *obs.Profile {
	return &obs.Profile{
		TotalNS: 1_000_000,
		Samples: 100,
		Ops:     map[string]int64{"ILoopNext": 60_000, "ISetDef": 20_000, "IGlobalAdd": 20_000},
		Kernels: map[string]int64{"merge": 1000, "bitmap": 500, "gallop": 200},
		KernelElems: map[string]int64{
			"merge": 100_000, "bitmap": 20_000, "gallop": 5_000,
		},
		KernelNS: map[string]int64{
			"merge": 8_000, "bitmap": 200, "gallop": 300,
		},
		KernelSampleElems: map[string]int64{
			"merge": 1_000, "bitmap": 200, "gallop": 50,
		},
		KernelSamples: map[string]int64{
			"merge": 32, "bitmap": 20, "gallop": 16,
		},
	}
}

func TestCalibrate(t *testing.T) {
	p := calProfile()
	cal, err := Calibrate(p)
	if err != nil {
		t.Fatal(err)
	}
	// merge: 8000ns/1000 elems = 8 ns/elem over 100k elems = 800k ns;
	// bitmap: 1 ns/elem over 20k = 20k; gallop: 6 ns/elem over 5k = 30k.
	// Residual = 1e6 − 850k = 150k over 100k instructions = 1.5 ns/instr.
	if math.Abs(cal.BaselineNSPerInstr-1.5) > 1e-9 {
		t.Fatalf("baseline = %v, want 1.5", cal.BaselineNSPerInstr)
	}
	if got := cal.Units.MergeElem; math.Abs(got-8/1.5) > 1e-9 {
		t.Fatalf("MergeElem = %v, want %v", got, 8/1.5)
	}
	if got := cal.Units.BitmapElem; math.Abs(got-1/1.5) > 1e-9 {
		t.Fatalf("BitmapElem = %v, want %v", got, 1/1.5)
	}
	if got := cal.Units.GallopElem; math.Abs(got-6/1.5) > 1e-9 {
		t.Fatalf("GallopElem = %v, want %v", got, 6/1.5)
	}
	if cal.Units.Loop != 1 || cal.Units.Scalar != 1 || cal.Units.Hash != 1 || cal.Units.Emit != 1 {
		t.Fatalf("bookkeeping units moved: %+v", cal.Units)
	}
	if cal.Instructions != 100_000 || cal.KernelSamples != 68 {
		t.Fatalf("evidence counts: %+v", cal)
	}
}

// TestCalibrateCountsElided: instructions the bytecode clean-up pass
// spared the run still count toward the baseline, because the estimator
// still prices them. The same residual over 100k executed plus 50k
// elided instructions is 1 ns each, and the element weights are
// measured against that.
func TestCalibrateCountsElided(t *testing.T) {
	p := calProfile()
	p.Elided = 50_000
	cal, err := Calibrate(p)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Instructions != 150_000 || math.Abs(cal.BaselineNSPerInstr-1) > 1e-9 {
		t.Fatalf("instructions %d, baseline %v; want 150000 and 1", cal.Instructions, cal.BaselineNSPerInstr)
	}
	if got := cal.Units.MergeElem; math.Abs(got-8) > 1e-9 {
		t.Fatalf("MergeElem = %v, want 8", got)
	}
}

func TestCalibrateFallbacks(t *testing.T) {
	// Below the per-path sample minimum the default weight is kept and
	// gallop modeling stays off.
	p := calProfile()
	p.KernelSamples["gallop"] = calMinKernelSamples - 1
	cal, err := Calibrate(p)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Units.GallopElem != 0 {
		t.Fatalf("sparse gallop path calibrated anyway: %v", cal.Units.GallopElem)
	}
	if _, ok := cal.KernelNSPerElem["gallop"]; ok {
		t.Fatal("sparse path reported a per-elem cost")
	}

	// Weights clamp to [1/16, 16]×baseline.
	p = calProfile()
	p.KernelNS["merge"] = 100_000_000
	cal, err = Calibrate(p)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Units.MergeElem != calClamp {
		t.Fatalf("MergeElem = %v, want clamp %v", cal.Units.MergeElem, calClamp)
	}

	// No timed dispatches at all → error.
	p = calProfile()
	p.KernelSamples = nil
	if _, err := Calibrate(p); err == nil {
		t.Fatal("calibration without timed dispatches must fail")
	}
	if _, err := Calibrate(nil); err == nil {
		t.Fatal("nil profile must fail")
	}
	if _, err := Calibrate(&obs.Profile{TotalNS: 5}); err == nil {
		t.Fatal("profile without instruction counts must fail")
	}
}
