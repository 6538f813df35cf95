package bench

import "fmt"

// Gate is the outcome of comparing a fresh report to a pinned baseline.
// Failures break the CI bench-gate job; warnings are advisory (e.g. a
// big improvement, which means the baseline should be refreshed).
type Gate struct {
	Failures []string
	Warnings []string
}

// OK reports whether the gate passed.
func (g Gate) OK() bool { return len(g.Failures) == 0 }

// minGateExecNS is the engine-time floor under which a workload's
// timing is too noisy to fail the gate (250ms). Under union-span exec
// accounting the smallest motif censuses finish in tens of milliseconds
// of engine time, where scheduler packing and host jitter routinely
// swing them by 2x; such workloads stay covered by the deterministic
// gates (counts, instructions, kernels, cache counters) and the
// warn-only absolute-time check.
const minGateExecNS = 250_000_000

func (g *Gate) failf(format string, args ...any) {
	g.Failures = append(g.Failures, fmt.Sprintf(format, args...))
}

func (g *Gate) warnf(format string, args ...any) {
	g.Warnings = append(g.Warnings, fmt.Sprintf(format, args...))
}

// suiteExecNS is a report's total engine time, the normalizer that
// cancels host speed out of per-workload timing comparisons.
func suiteExecNS(r *Report) float64 {
	var ns int64
	for _, w := range r.Workloads {
		ns += w.ExecNS
	}
	return float64(ns)
}

// Compare gates cur against base with the given relative tolerance
// (0.25 = ±25%). The policy separates metric classes by how much of
// their variance is signal:
//
//   - Counts, engine instruction totals, and plan-cache counters are
//     seed-determined: any drift is a real behavior change and fails.
//   - A workload's share of the suite's engine time (which cancels host
//     speed) fails on growth beyond tol and warns on shrinkage — but
//     only for workloads with enough engine time to measure. Time, not
//     instructions per second: a change that deletes cheap instructions
//     lowers a workload's rate without slowing it. A uniform slowdown
//     across every workload cancels out of the share; the absolute-time
//     warnings below are the safety net for that case.
//   - Absolute engine time and worker balance are host- and
//     schedule-dependent: drift beyond tol only warns.
func Compare(cur, base *Report, tol float64) Gate {
	var g Gate
	if cur.Threads != base.Threads || cur.Seed != base.Seed || cur.Short != base.Short {
		g.failf("config mismatch: current (threads=%d seed=%d short=%v) vs baseline (threads=%d seed=%d short=%v)",
			cur.Threads, cur.Seed, cur.Short, base.Threads, base.Seed, base.Short)
		return g
	}
	curNS, baseNS := suiteExecNS(cur), suiteExecNS(base)
	curBy := map[string]Workload{}
	for _, w := range cur.Workloads {
		curBy[w.Name] = w
	}
	for _, b := range base.Workloads {
		c, ok := curBy[b.Name]
		if !ok {
			g.failf("%s: workload missing from current report", b.Name)
			continue
		}
		delete(curBy, b.Name)
		if c.Count != b.Count {
			g.failf("%s: count %d != baseline %d", b.Name, c.Count, b.Count)
		}
		if c.Instructions != b.Instructions {
			g.failf("%s: instructions %d != baseline %d", b.Name, c.Instructions, b.Instructions)
		}
		if c.Cache.Hits != b.Cache.Hits || c.Cache.Misses != b.Cache.Misses ||
			c.Cache.NegativeHits != b.Cache.NegativeHits {
			g.failf("%s: cache counters %+v != baseline %+v", b.Name, c.Cache, b.Cache)
		}
		// Kernel-path dispatch counts are seed-determined like
		// instruction totals: drift means the kernel router (or the hub
		// index build) changed behavior. Baselines predating the counters
		// (nil map) are tolerated.
		if b.Kernels != nil {
			for k, bc := range b.Kernels {
				if cc := c.Kernels[k]; cc != bc {
					g.failf("%s: kernel %s dispatches %d != baseline %d", b.Name, k, cc, bc)
				}
			}
			for k, cc := range c.Kernels {
				if _, ok := b.Kernels[k]; !ok {
					g.failf("%s: kernel %s dispatches %d not in baseline", b.Name, k, cc)
				}
			}
		}
		// Aux-comparison element work is schedule-invariant and
		// seed-determined like instruction totals: any drift means the
		// aux pass, the arbiter, or the kernels changed behavior.
		// Baselines predating the fields (zero) are tolerated.
		if b.AuxElemsOff != 0 && c.AuxElemsOff != b.AuxElemsOff {
			g.failf("%s: no-aux kernel element work %d != baseline %d", b.Name, c.AuxElemsOff, b.AuxElemsOff)
		}
		if b.AuxElemsOn != 0 && c.AuxElemsOn != b.AuxElemsOn {
			g.failf("%s: aux kernel element work %d != baseline %d", b.Name, c.AuxElemsOn, b.AuxElemsOn)
		}
		// The serving replay script is fixed, so its cache and rewrite
		// hit counts are as deterministic as instruction totals: drift
		// means the cache keying, the rewrite layer, or the script
		// changed behavior. Baselines predating the fields are tolerated.
		if b.ServeQueries != 0 {
			if c.ServeQueries != b.ServeQueries || c.ServeCacheHits != b.ServeCacheHits ||
				c.ServeRewriteHits != b.ServeRewriteHits {
				g.failf("%s: serve replay queries/cache-hits/rewrite-hits %d/%d/%d != baseline %d/%d/%d",
					b.Name, c.ServeQueries, c.ServeCacheHits, c.ServeRewriteHits,
					b.ServeQueries, b.ServeCacheHits, b.ServeRewriteHits)
			}
		}
		// The batch workload's instruction totals, shared-hit ledger and
		// subquery count are seed-determined and thread-count independent:
		// drift means the demand analysis, the externalization rule, or
		// the plans changed behavior. Baselines predating the fields
		// (zero) are tolerated.
		if b.BatchInstr != 0 {
			if c.BatchInstr != b.BatchInstr || c.SerialInstr != b.SerialInstr {
				g.failf("%s: batch/serial instructions %d/%d != baseline %d/%d",
					b.Name, c.BatchInstr, c.SerialInstr, b.BatchInstr, b.SerialInstr)
			}
			if c.BatchSharedHits != b.BatchSharedHits || c.BatchSubqueries != b.BatchSubqueries {
				g.failf("%s: batch shared-hits/subqueries %d/%d != baseline %d/%d",
					b.Name, c.BatchSharedHits, c.BatchSubqueries, b.BatchSharedHits, b.BatchSubqueries)
			}
		}
		if b.ExecNS > 0 && c.ExecNS > 0 {
			if b.ExecNS >= minGateExecNS {
				cShare, bShare := float64(c.ExecNS)/curNS, float64(b.ExecNS)/baseNS
				switch {
				case cShare > bShare*(1+tol):
					g.failf("%s: share of suite engine time %.3f regressed beyond %.0f%% of baseline %.3f (absolute %.3gs vs %.3gs)",
						b.Name, cShare, tol*100, bShare, float64(c.ExecNS)/1e9, float64(b.ExecNS)/1e9)
				case cShare < bShare*(1-tol):
					g.warnf("%s: share of suite engine time %.3f improved beyond %.0f%% of baseline %.3f — refresh the baseline",
						b.Name, cShare, tol*100, bShare)
				}
			}
			switch {
			case float64(c.ExecNS) > float64(b.ExecNS)*(1+tol):
				g.warnf("%s: engine time %.3gs above baseline %.3gs (host-dependent; check for a uniform slowdown)",
					b.Name, float64(c.ExecNS)/1e9, float64(b.ExecNS)/1e9)
			case float64(c.ExecNS) < float64(b.ExecNS)*(1-tol):
				g.warnf("%s: engine time %.3gs below baseline %.3gs",
					b.Name, float64(c.ExecNS)/1e9, float64(b.ExecNS)/1e9)
			}
		}
		if b.Balance.MaxOverMean > 0 && c.Balance.MaxOverMean > b.Balance.MaxOverMean*(1+tol) {
			g.warnf("%s: worker balance max/mean %.2f worse than baseline %.2f",
				b.Name, c.Balance.MaxOverMean, b.Balance.MaxOverMean)
		}
	}
	for name := range curBy {
		g.warnf("%s: workload not in baseline — pin a new baseline to gate it", name)
	}
	return g
}
