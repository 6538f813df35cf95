package cost

// Profile-guided calibration. The three cost models price a plan in
// abstract units where one simple VM instruction costs 1 and one
// element of set-kernel work also costs 1. That second equivalence is a
// guess: on real hardware a merge step, a galloping probe, and a bitmap
// word test have very different costs, and the ratio shifts with the
// graph's cache footprint. Calibrate turns an accumulated execution
// profile (obs.Profile, produced by the engine's sampling profiler)
// into measured unit weights: a residual baseline ns-per-instruction
// plus a measured ns-per-element for each kernel path, expressed as
// multiples of the baseline. ApplyCalibration installs the weights into
// a model for ranking.
//
// Invariant: calibration never changes what a plan computes — every
// candidate still enumerates the same embeddings — it only changes
// which candidate the search ranks first.

import (
	"fmt"

	"decomine/internal/obs"
)

// Units holds the estimator's unit weights, in multiples of the cost of
// one simple VM instruction. The zero value is invalid; use
// DefaultUnits for the uncalibrated weights.
type Units struct {
	// Loop, Scalar, Hash, and Emit weight the per-iteration bookkeeping
	// cost sites. They stay 1 under calibration: the residual baseline
	// IS the measured per-instruction cost, so these are the unit.
	Loop   float64
	Scalar float64
	Hash   float64
	Emit   float64
	// MergeElem is the cost of one element position of an O(a+b) sorted
	// merge (intersect or subtract).
	MergeElem float64
	// GallopElem is the cost of one unit of galloping-search work,
	// min·(log2(max/min)+1) units per dispatch. Zero or negative
	// disables gallop cost modeling, making the estimator price the
	// array path as a plain merge — the uncalibrated behavior.
	GallopElem float64
	// BitmapElem is the cost of probing one array element against a hub
	// bitmap row.
	BitmapElem float64
}

// DefaultUnits returns the static weights: every cost site priced in
// plain instruction units, gallop modeling off. Estimates under
// DefaultUnits are bit-identical to the pre-calibration formulas.
func DefaultUnits() Units {
	return Units{Loop: 1, Scalar: 1, Hash: 1, Emit: 1, MergeElem: 1, GallopElem: 0, BitmapElem: 1}
}

const (
	// calMinKernelSamples gates a kernel path's measured per-element
	// time: below this many exactly timed dispatches, timer granularity
	// and scheduling noise dominate and the default weight is kept.
	calMinKernelSamples = 16
	// calClamp bounds each calibrated weight to [1/calClamp, calClamp]
	// times the baseline so one pathological measurement cannot invert
	// the ranking wholesale.
	calClamp = 16.0
)

// Calibration is the result of fitting unit weights to a profile.
type Calibration struct {
	Units Units `json:"units"`
	// BaselineNSPerInstr is the residual dispatch cost: profiled wall
	// time not attributed to kernel element work, per instruction of the
	// uncleaned program (executed plus elided, see obs.Profile.Elided).
	BaselineNSPerInstr float64 `json:"baseline_ns_per_instr"`
	// KernelNSPerElem holds the measured per-element nanosecond cost of
	// every kernel path that met the sample minimum.
	KernelNSPerElem map[string]float64 `json:"kernel_ns_per_elem"`
	// Instructions and KernelSamples record how much evidence backed
	// the fit.
	Instructions  int64 `json:"instructions"`
	KernelSamples int64 `json:"kernel_samples"`
}

func clampUnit(u float64) float64 {
	if u < 1/calClamp {
		return 1 / calClamp
	}
	if u > calClamp {
		return calClamp
	}
	return u
}

// Calibrate fits unit weights to an accumulated execution profile.
// It needs a profile with sampled wall time, exact instruction counts,
// and at least one kernel path with calMinKernelSamples exactly timed
// dispatches; otherwise it returns an error and the caller should keep
// ranking with the static weights.
func Calibrate(p *obs.Profile) (*Calibration, error) {
	if p == nil || p.TotalNS <= 0 {
		return nil, fmt.Errorf("cost: calibration needs a profile with sampled wall time")
	}
	// The instructions the estimator prices: every executed one plus
	// those the bytecode clean-up pass deleted, which the model still
	// counts. Dividing by the executed ones alone would inflate the
	// baseline on cleaned plans and shrink every element weight with it.
	instr := p.Elided
	for _, c := range p.Ops {
		instr += c
	}
	if instr <= 0 {
		return nil, fmt.Errorf("cost: calibration needs instruction counts in the profile")
	}

	perElem := map[string]float64{}
	var kSamples int64
	for name, n := range p.KernelSamples {
		kSamples += n
		if el := p.KernelSampleElems[name]; n >= calMinKernelSamples && el > 0 {
			perElem[name] = float64(p.KernelNS[name]) / float64(el)
		}
	}
	if len(perElem) == 0 {
		return nil, fmt.Errorf("cost: calibration needs >= %d timed dispatches on some kernel path (have %d total)",
			calMinKernelSamples, kSamples)
	}

	// Residual baseline: wall time left after pricing every dispatch of
	// the measured paths at its fitted per-element cost, spread over
	// those instructions. The exact-timing subsample can
	// over-attribute (its windows include call overhead), so the
	// residual is floored at 5% of the total.
	kernelNS := 0.0
	for name, pe := range perElem {
		kernelNS += pe * float64(p.KernelElems[name])
	}
	residual := float64(p.TotalNS) - kernelNS
	if floor := float64(p.TotalNS) / 20; residual < floor {
		residual = floor
	}
	baseline := residual / float64(instr)

	u := DefaultUnits()
	if pe, ok := perElem["merge"]; ok {
		u.MergeElem = clampUnit(pe / baseline)
	}
	if pe, ok := perElem["gallop"]; ok {
		// A measured gallop path switches gallop cost modeling on.
		u.GallopElem = clampUnit(pe / baseline)
	}
	if pe, ok := perElem["bitmap"]; ok {
		// bitmap-count (bitmap×bitmap popcount) has a different element
		// measure (words, not probes) and no estimator cost site of its
		// own; only the array×bitmap probe path calibrates BitmapElem.
		u.BitmapElem = clampUnit(pe / baseline)
	}
	return &Calibration{
		Units:              u,
		BaselineNSPerInstr: baseline,
		KernelNSPerElem:    perElem,
		Instructions:       instr,
		KernelSamples:      kSamples,
	}, nil
}

// unitCalibrated is implemented by models whose estimator weights can
// be replaced with measured values.
type unitCalibrated interface {
	withUnits(Units) Model
}

// ApplyCalibration returns a copy of m ranking with cal's measured unit
// weights. It returns m unchanged when cal is nil or the model does not
// expose unit weights.
func ApplyCalibration(m Model, cal *Calibration) Model {
	if cal == nil {
		return m
	}
	if c, ok := m.(unitCalibrated); ok {
		return c.withUnits(cal.Units)
	}
	return m
}
