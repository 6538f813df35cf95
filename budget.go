package decomine

import (
	"sync/atomic"
	"time"

	"decomine/internal/core"
	"decomine/internal/engine"
	"decomine/internal/pattern"
)

// The ...Within variants run an application under a wall-clock budget,
// reporting timedOut=true (with a partial or zero count) when the budget
// expires. The experiment harness uses them to reproduce the paper's
// "T" (timeout) table cells without letting a slow baseline run forever.

// cancelAfter returns a flag that flips once budget elapses, plus the
// function releasing its timer; budget <= 0 means unlimited (nil flag).
func cancelAfter(budget time.Duration) (*atomic.Bool, func()) {
	if budget <= 0 {
		return nil, func() {}
	}
	cancel := &atomic.Bool{}
	timer := time.AfterFunc(budget, func() { cancel.Store(true) })
	return cancel, func() { timer.Stop() }
}

// countWithin executes a counting plan, aborting when budget elapses.
func (s *System) countWithin(plan *core.Plan, budget time.Duration) (int64, bool, error) {
	cancel, stop := cancelAfter(budget)
	defer stop()
	count, res, _, err := s.runStats(plan, engine.Options{Cancel: cancel}, nil)
	if err != nil {
		return 0, false, err
	}
	return count, res.Canceled, nil
}

// GetPatternCountWithin is GetPatternCount with a wall-clock budget.
func (s *System) GetPatternCountWithin(p *Pattern, budget time.Duration) (int64, bool, error) {
	plan, err := s.plan(p.p, core.ModeCount, false)
	if err != nil {
		return 0, false, err
	}
	return s.countWithin(plan, budget)
}

// MotifCountsWithin is MotifCounts with a total wall-clock budget across
// all size-k pattern classes.
func (s *System) MotifCountsWithin(k int, budget time.Duration) ([]MotifCount, bool, error) {
	deadline := time.Now().Add(budget)
	pats := pattern.ConnectedPatterns(k)
	ei := make(map[pattern.Code]int64, len(pats))
	for _, p := range pats {
		remaining := time.Duration(0)
		if budget > 0 {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				return nil, true, nil
			}
		}
		plan, err := s.plan(p, core.ModeCount, false)
		if err != nil {
			return nil, false, err
		}
		c, canceled, err := s.countWithin(plan, remaining)
		if err != nil {
			return nil, false, err
		}
		if canceled {
			return nil, true, nil
		}
		ei[p.Canonical()] = c
	}
	out := make([]MotifCount, 0, len(pats))
	for _, p := range pats {
		out = append(out, MotifCount{
			Pattern: &Pattern{p.Clone()},
			Count:   pattern.VertexInducedFromEdgeInduced(p, ei),
		})
	}
	return out, false, nil
}

// TotalMotifCountWithin sums MotifCountsWithin.
func (s *System) TotalMotifCountWithin(k int, budget time.Duration) (int64, bool, error) {
	counts, timedOut, err := s.MotifCountsWithin(k, budget)
	if err != nil || timedOut {
		return 0, timedOut, err
	}
	var total int64
	for _, mc := range counts {
		total += mc.Count
	}
	return total, false, nil
}

// CycleCountWithin is CycleCount with a budget.
func (s *System) CycleCountWithin(k int, budget time.Duration) (int64, bool, error) {
	p, err := PatternByName(cycleName(k))
	if err != nil {
		return 0, false, err
	}
	return s.GetPatternCountWithin(p, budget)
}

func cycleName(k int) string {
	return "cycle-" + itoa(k)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// PseudoCliqueCountWithin is PseudoCliqueCount with a budget.
func (s *System) PseudoCliqueCountWithin(n, missing int, budget time.Duration) (int64, bool, error) {
	deadline := time.Now().Add(budget)
	var total int64
	for _, p := range pattern.PseudoCliques(n, missing) {
		remaining := time.Duration(0)
		if budget > 0 {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				return 0, true, nil
			}
		}
		// Vertex-induced via the conversion plan, each piece budgeted.
		vi, timedOut, err := s.vertexInducedWithin(p, remaining)
		if err != nil || timedOut {
			return 0, timedOut, err
		}
		total += vi
	}
	return total, false, nil
}

func (s *System) vertexInducedWithin(p *pattern.Pattern, budget time.Duration) (int64, bool, error) {
	deadline := time.Now().Add(budget)
	ei := map[pattern.Code]int64{}
	for _, q := range pattern.ConversionPlan(p) {
		remaining := time.Duration(0)
		if budget > 0 {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				return 0, true, nil
			}
		}
		plan, err := s.plan(q, core.ModeCount, false)
		if err != nil {
			return 0, false, err
		}
		c, canceled, err := s.countWithin(plan, remaining)
		if err != nil || canceled {
			return 0, canceled, err
		}
		ei[q.Canonical()] = c
	}
	return pattern.VertexInducedFromEdgeInduced(p, ei), false, nil
}

// FSMWithin is FSM with a wall-clock budget (enforced across support
// computations and within each plan execution).
func (s *System) FSMWithin(minSupport int64, maxEdges int, budget time.Duration) ([]FrequentPattern, bool, error) {
	return s.fsm(minSupport, maxEdges, budget)
}

// WorkDistribution executes p's plan and returns the bytecode
// instructions each worker executed — the load-balance signal behind
// the scalability experiment (Figure 16).
func (s *System) WorkDistribution(p *Pattern) ([]int64, error) {
	plan, err := s.plan(p.p, core.ModeCount, false)
	if err != nil {
		return nil, err
	}
	res, _, err := s.exec(plan, true, engine.Options{})
	if err != nil {
		return nil, err
	}
	return res.WorkPerThread, nil
}

// CompileAndExecuteMotifs runs k-motif counting separating compilation
// (algorithm search + generation + optimization + costing) from
// execution, for the compilation-overhead experiment (Figure 18). The
// system's plan cache is bypassed so every pattern is compiled fresh.
func (s *System) CompileAndExecuteMotifs(k int, budget time.Duration) (compile, exec time.Duration, timedOut bool, err error) {
	deadline := time.Now().Add(budget)
	for _, p := range pattern.ConnectedPatterns(k) {
		t0 := time.Now()
		best, _, serr := core.Search(p, s.searchOptions(core.ModeCount, false))
		compile += time.Since(t0)
		if serr != nil {
			return compile, exec, false, serr
		}
		remaining := time.Duration(0)
		if budget > 0 {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				return compile, exec, true, nil
			}
		}
		t1 := time.Now()
		_, canceled, rerr := s.countWithin(best.Plan, remaining)
		exec += time.Since(t1)
		if rerr != nil {
			return compile, exec, false, rerr
		}
		if canceled {
			return compile, exec, true, nil
		}
	}
	return compile, exec, false, nil
}
