// Package exp is the experiment harness: every table and figure of the
// paper's evaluation (§8) has a regenerator here that prints the same
// rows/series the paper reports. Comparator systems:
//
//   - DecoMine          — the full system (approximate-mining cost model)
//   - AutoMineInHouse   — decomposition disabled, no last-loop counting
//     optimization (the paper's in-house AutoMine; also the
//     Peregrine-class pattern-aware baseline)
//   - GraphPi-like      — decomposition disabled, symmetry-breaking plans
//     with the "mathematical" last-loop counting optimization
//   - Oblivious         — ESU enumeration + per-embedding isomorphism
//     classification (the Arabesque/RStream/Fractal class)
//   - Native            — closed-form 4-motif counter (the ESCAPE class)
//
// Absolute times will not match the paper's testbed (this is a pure-Go
// engine on different hardware and scaled datasets); the reproduced
// quantity is the *shape*: who wins, by roughly what factor, and where
// the crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"decomine"
	"decomine/internal/graph"
	"decomine/internal/pattern"
)

// Config tunes the harness for the machine at hand.
type Config struct {
	// Budget is the per-cell wall-clock budget; cells that exceed it
	// print "T" like the paper's timeout marker.
	Budget time.Duration
	// Threads for DecoMine and baselines (0 = GOMAXPROCS).
	Threads int
	// Quick shrinks pattern sizes/datasets for smoke tests.
	Quick bool
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// --- comparator system constructors ---

// sysCache avoids rebuilding profiling tables per experiment.
var sysCache = map[string]*decomine.System{}

func cachedSystem(key string, build func() *decomine.System) *decomine.System {
	if s, ok := sysCache[key]; ok {
		return s
	}
	s := build()
	// Warm the cost model so the profile's one-off edge sampling stays
	// out of the measured cells ("runtimes exclude graph loading and
	// profiling time", §8.2); fig18's notes report it. The per-shape
	// estimates are lazy and land in the first searches that need them.
	s.Model()
	sysCache[key] = s
	return s
}

// DecoMineSys builds the full system over a builtin dataset.
func DecoMineSys(dataset string, cfg Config) *decomine.System {
	return cachedSystem("dm/"+dataset+threadKey(cfg), func() *decomine.System {
		return decomine.NewSystem(mustDataset(dataset), decomine.Options{
			Threads:            cfg.Threads,
			ProfileSampleEdges: 100_000,
			ProfileTrials:      20_000,
		})
	})
}

// AutoMineSys is the in-house AutoMine / Peregrine-class baseline:
// pattern-aware direct plans, no decomposition, no last-loop counting.
func AutoMineSys(dataset string, cfg Config) *decomine.System {
	return cachedSystem("am/"+dataset+threadKey(cfg), func() *decomine.System {
		return decomine.NewSystem(mustDataset(dataset), decomine.Options{
			Threads:              cfg.Threads,
			CostModel:            decomine.CostLocality,
			DisableDecomposition: true,
			DisableCountLastLoop: true,
		})
	})
}

// GraphPiSys is the GraphPi-class baseline: direct plans with symmetry
// breaking and the mathematical counting optimization.
func GraphPiSys(dataset string, cfg Config) *decomine.System {
	return cachedSystem("gp/"+dataset+threadKey(cfg), func() *decomine.System {
		return decomine.NewSystem(mustDataset(dataset), decomine.Options{
			Threads:              cfg.Threads,
			CostModel:            decomine.CostLocality,
			DisableDecomposition: true,
		})
	})
}

func threadKey(cfg Config) string { return fmt.Sprintf("/t%d", cfg.Threads) }

func mustDataset(name string) *decomine.Graph {
	g, err := decomine.Dataset(name)
	if err != nil {
		panic(err)
	}
	return g
}

// RawDataset exposes the internal graph for baselines that bypass the
// public API (the oblivious enumerator).
func RawDataset(name string) *graph.Graph { return graph.MustDataset(name) }

// --- measurement helpers ---

// cell is one timed measurement.
type cell struct {
	dur      time.Duration
	count    int64
	timedOut bool
	err      error
}

func (c cell) timeString() string {
	switch {
	case c.err != nil:
		return "ERR"
	case c.timedOut:
		return "T"
	default:
		return FormatDuration(c.dur)
	}
}

// speedupString renders "(12.3x)" of base over this cell.
func (c cell) speedupString(base cell) string {
	if c.err != nil {
		return c.timeString()
	}
	if c.timedOut {
		if base.dur > 0 {
			return fmt.Sprintf("T (>%.1fx)", float64(c.dur)/float64(base.dur))
		}
		return "T"
	}
	if base.dur <= 0 {
		return c.timeString()
	}
	return fmt.Sprintf("%s (%.1fx)", FormatDuration(c.dur), float64(c.dur)/float64(base.dur))
}

// timed measures fn once, attributing the timeout flag; a query
// stopped by its deadline (ErrCanceled) reads as a timeout, not an
// error.
func timed(fn func() (int64, bool, error)) cell {
	start := time.Now()
	count, timedOut, err := fn()
	if errors.Is(err, decomine.ErrCanceled) {
		timedOut, err = true, nil
	}
	return cell{dur: time.Since(start), count: count, timedOut: timedOut, err: err}
}

// deadline turns the per-cell budget into a query deadline (the zero
// time — no deadline — for an unlimited budget).
func deadline(budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// motifTotal measures k-motif counting (k-MC): every connected k-vertex
// class counted vertex-induced in one batch — the path MotifCounts
// takes — summed, under the per-cell budget.
func motifTotal(sys *decomine.System, k int, budget time.Duration) cell {
	return inducedTotal(sys, decomine.MotifPatterns(k), budget)
}

// pseudoCliqueTotal measures n-vertex pseudo-clique counting with at
// most one missing edge (n-PC) the same way.
func pseudoCliqueTotal(sys *decomine.System, n int, budget time.Duration) cell {
	var ps []*decomine.Pattern
	for _, p := range pattern.PseudoCliques(n, 1) {
		ps = append(ps, decomine.RawPattern(p))
	}
	return inducedTotal(sys, ps, budget)
}

func inducedTotal(sys *decomine.System, ps []*decomine.Pattern, budget time.Duration) cell {
	return timed(func() (int64, bool, error) {
		br, err := sys.CountPatterns(ps, decomine.BatchOpts{Induced: true, Deadline: deadline(budget)})
		if err != nil {
			return 0, false, err
		}
		var total int64
		for _, r := range br.Results {
			total += r.Count
		}
		return total, false, nil
	})
}

// cycleCount measures k-cycle counting (edge-induced) under the
// per-cell budget.
func cycleCount(sys *decomine.System, k int, budget time.Duration) cell {
	return timed(func() (int64, bool, error) {
		p, err := decomine.PatternByName(fmt.Sprintf("cycle-%d", k))
		if err != nil {
			return 0, false, err
		}
		r, err := sys.CountPattern(p, decomine.QueryOpts{Deadline: deadline(budget)})
		if err != nil {
			return 0, false, err
		}
		return r.Count, false, nil
	})
}

// fsmCount measures FSM up to 3 edges at support tau, counting the
// frequent patterns; a truncated run reads as a timeout.
func fsmCount(sys *decomine.System, tau int64, budget time.Duration) cell {
	return timed(func() (int64, bool, error) {
		res, truncated, err := sys.FSMWithin(tau, 3, budget)
		return int64(len(res)), truncated, err
	})
}

// FormatDuration renders durations the way the paper's tables do.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.0fms", float64(d.Milliseconds()))
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%.1fm", d.Minutes())
	default:
		return fmt.Sprintf("%.1fh", d.Hours())
	}
}

// obliviousMotif runs the pattern-oblivious baseline under the per-cell
// budget, checked once per root vertex inside the census.
func obliviousMotif(dataset string, k int, budget time.Duration) cell {
	g := RawDataset(dataset)
	return timed(func() (int64, bool, error) {
		census, timedOut := ObliviousCensusTotalBudget(g, k, budget)
		return census, timedOut, nil
	})
}
