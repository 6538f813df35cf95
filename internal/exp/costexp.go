package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"decomine"
	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/cost"
	"decomine/internal/decomp"
	"decomine/internal/engine"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

// costModels builds the three models of §6 for one graph.
func costModels(g *graph.Graph) map[string]cost.Model {
	st := cost.StatsOf(g)
	profile := sampling.BuildProfile(g, sampling.Options{
		SampleEdges: 100_000, Trials: 20_000, Seed: 4242,
	})
	return map[string]cost.Model{
		"AutoMine": cost.NewAutoMine(st),
		"LA":       cost.NewLocality(st, 0.25),
		"AM":       cost.NewApproxMining(st, profile),
	}
}

// runPlanBudget executes a raw core plan under a budget, additionally
// reporting the number of bytecode instructions the VM executed (the
// op-level work signal reported alongside wall time).
func runPlanBudget(g *graph.Graph, plan *core.Plan, threads int, budget time.Duration) (dur time.Duration, ops int64, canceled bool, err error) {
	var cancel *atomic.Bool
	if budget > 0 {
		cancel = &atomic.Bool{}
		timer := time.AfterFunc(budget, func() { cancel.Store(true) })
		defer timer.Stop()
	}
	start := time.Now()
	res, err := engine.Run(g, plan.Prog, engine.Options{Threads: threads, Cancel: cancel, Code: plan.Lowered()})
	if err != nil {
		return time.Since(start), 0, false, err
	}
	return time.Since(start), res.InstructionsExecuted(), res.Canceled, nil
}

// pearson computes the linear correlation coefficient.
func pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Fig11b reproduces Figure 11(b): the correlation between predicted cost
// and actual runtime over randomly generated implementations, for the
// three cost models, on the EmailEuCore-class graph.
func Fig11b(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 11b: cost model correlation R (random implementations, ee-like)",
		Header: []string{"workload", "impls", "R AutoMine", "R LA", "R AM"},
		Notes:  []string{"R computed on log(cost) vs log(runtime), as cost spans orders of magnitude"},
	}
	g := RawDataset("ee")
	models := costModels(g)
	impls := 20
	if cfg.Quick {
		impls = 8
	}
	// Random implementations can be pathologically slow; bound each to a
	// small budget and exclude non-finishers from the correlation (the
	// paper's plot similarly truncates its axes).
	implBudget := cfg.Budget
	if implBudget <= 0 || implBudget > 8*time.Second {
		implBudget = 8 * time.Second
	}
	workloads := []struct {
		name string
		pat  *pattern.Pattern
	}{
		{"p1 (size-5)", mustByName("p1")},
		{"p4 (size-6)", mustByName("p4")},
		{"p5 (size-7)", mustByName("p5")},
	}
	if cfg.Quick {
		workloads = workloads[:1]
	}
	for _, w := range workloads {
		r := rand.New(rand.NewSource(99))
		var runtimes []float64
		preds := map[string][]float64{}
		tried := 0
		for len(runtimes) < impls && tried < impls*2 {
			tried++
			plan, err := core.RandomSpec(w.pat, core.ModeCount, r)
			if err != nil {
				continue
			}
			dur, _, canceled, err := runPlanBudget(g, plan, cfg.Threads, implBudget)
			if err != nil || canceled {
				continue // timeouts excluded: no measured runtime
			}
			runtimes = append(runtimes, math.Log(math.Max(dur.Seconds(), 1e-6)))
			for name, m := range models {
				preds[name] = append(preds[name], math.Log(math.Max(m.Cost(plan.Prog), 1e-9)))
			}
		}
		t.Rows = append(t.Rows, []string{
			w.name, fmt.Sprintf("%d", len(runtimes)),
			fmt.Sprintf("%.3f", pearson(preds["AutoMine"], runtimes)),
			fmt.Sprintf("%.3f", pearson(preds["LA"], runtimes)),
			fmt.Sprintf("%.3f", pearson(preds["AM"], runtimes)),
		})
	}
	return t
}

func mustByName(name string) *pattern.Pattern {
	p, err := pattern.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Fig11c reproduces Figure 11(c): end-to-end speedup of the
// implementations selected by the locality-aware and approximate-mining
// models over those selected by AutoMine's model.
func Fig11c(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 11c: speedup of LA/AM-selected plans over AutoMine-selected (ee-like)",
		Header: []string{"pattern", "AutoMine-pick", "LA-pick (speedup)", "AM-pick (speedup)"},
	}
	g := RawDataset("ee")
	models := costModels(g)
	pats := []string{"p1", "p2", "p3", "p4", "p5"}
	if cfg.Quick {
		pats = pats[:2]
	}
	for _, name := range pats {
		p := mustByName(name)
		durs := map[string]cell{}
		for mname, m := range models {
			best, _, err := core.Search(p, core.SearchOptions{Model: m, Mode: core.ModeCount})
			if err != nil {
				durs[mname] = cell{err: err}
				continue
			}
			d, _, canceled, err := runPlanBudget(g, best.Plan, cfg.Threads, cfg.Budget)
			durs[mname] = cell{dur: d, timedOut: canceled, err: err}
		}
		base := durs["AutoMine"]
		sp := func(c cell) string {
			if c.err != nil || base.err != nil {
				return "ERR"
			}
			if c.timedOut {
				return "T"
			}
			if base.timedOut {
				return fmt.Sprintf("%s (>%.1fx)", FormatDuration(c.dur), float64(base.dur)/float64(c.dur))
			}
			return fmt.Sprintf("%s (%.1fx)", FormatDuration(c.dur), float64(base.dur)/float64(c.dur))
		}
		t.Rows = append(t.Rows, []string{name, base.timeString(), sp(durs["LA"]), sp(durs["AM"])})
	}
	return t
}

// Fig14 reproduces Figure 14: DecoMine's speedup over the GraphPi-class
// baseline (with and without the counting optimization) for 3/4/5-motif.
func Fig14(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 14: speedup over GraphPi-like",
		Header: []string{"graph", "3-MC", "4-MC", "5-MC", "3-MC(count)", "4-MC(count)", "5-MC(count)"},
		Notes:  []string{"(count) columns: GraphPi's mathematical counting optimization enabled"},
	}
	datasets := []string{"cs", "ee", "wk", "pt", "mc"}
	if cfg.Quick {
		datasets = datasets[:2]
	}
	for _, ds := range datasets {
		dm := DecoMineSys(ds, cfg)
		gpNoCount := AutoMineSys(ds, cfg) // SB plans without count opt
		gpCount := GraphPiSys(ds, cfg)
		row := []string{ds}
		for _, base := range []*decomine.System{gpNoCount, gpCount} {
			for _, k := range []int{3, 4, 5} {
				cDM := motifTotal(dm, k, cfg.Budget)
				cGP := motifTotal(base, k, cfg.Budget)
				switch {
				case cDM.err != nil || cGP.err != nil:
					row = append(row, "ERR")
				case cDM.timedOut:
					row = append(row, "T")
				case cGP.timedOut:
					row = append(row, fmt.Sprintf(">%.0fx", float64(cGP.dur)/float64(cDM.dur)))
				default:
					row = append(row, fmt.Sprintf("%.1fx", float64(cGP.dur)/float64(cDM.dur)))
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig15 reproduces Figure 15: the speedup of pattern-aware loop
// rewriting, per size-5 pattern (all except the 5-clique, which has no
// cutting set).
func Fig15(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 15: PLR speedup per size-5 pattern",
		Header: []string{"pattern#", "edges", "no-PLR", "PLR", "speedup", "no-PLR ops", "PLR ops", "cutsym"},
	}
	dataset := "wk"
	if cfg.Quick {
		dataset = "ee"
	}
	g := RawDataset(dataset)
	st := cost.StatsOf(g)
	profile := sampling.BuildProfile(g, sampling.Options{SampleEdges: 100_000, Trials: 20_000, Seed: 4242})
	model := cost.NewApproxMining(st, profile)
	idx := 0
	for _, p := range pattern.ConnectedPatterns(5) {
		if len(decomp.CuttingSets(p)) == 0 {
			continue // the 5-clique
		}
		idx++
		if cfg.Quick && idx > 4 {
			break
		}
		without, _, err := core.Search(p, core.SearchOptions{Model: model, Mode: core.ModeCount, DisableDirect: true, DisablePLR: true})
		if err != nil {
			continue
		}
		with, _, err := core.Search(p, core.SearchOptions{Model: model, Mode: core.ModeCount, DisableDirect: true})
		if err != nil {
			continue
		}
		dWithout, opsWithout, to1, err1 := runPlanBudget(g, without.Plan, cfg.Threads, cfg.Budget)
		dWith, opsWith, to2, err2 := runPlanBudget(g, with.Plan, cfg.Threads, cfg.Budget)
		sp := "-"
		if err1 == nil && err2 == nil && !to1 && !to2 && dWith > 0 {
			sp = fmt.Sprintf("%.2fx", float64(dWithout)/float64(dWith))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", idx), fmt.Sprintf("%d", p.NumEdges()),
			FormatDuration(dWithout), FormatDuration(dWith), sp,
			fmt.Sprintf("%d", opsWithout), fmt.Sprintf("%d", opsWith),
			fmt.Sprintf("%d/%d", without.Plan.CutSym, with.Plan.CutSym),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("dataset %s; PLR candidates still compete with non-PLR under the cost model", dataset),
		"cutsym: |H| of the no-PLR/PLR winner's cut stabilizer (0 = unrestricted); a winner with |H| > 1 runs its cut loops symmetry-broken and without PLR, so such rows compare cut orders, not PLR")
	return t
}

// Fig19 reproduces Figure 19: AutoMine with a perfect cost model (best
// direct plan found by exhaustively timing all matching orders) vs
// DecoMine under each of the three cost models, for p1..p3.
func Fig19(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 19: AM-OPT vs DM-Auto/DM-LA/DM-AM (wk-like)",
		Header: []string{"pattern", "AM-OPT", "DM-Auto", "DM-LA", "DM-AM"},
		Notes:  []string{"AM-OPT = best direct plan by exhaustive timing (ideal cost model)"},
	}
	dataset := "wk"
	if cfg.Quick {
		dataset = "ee"
	}
	g := RawDataset(dataset)
	models := costModels(g)
	pats := []string{"p1", "p2", "p3"}
	if cfg.Quick {
		pats = pats[:1]
	}
	for _, name := range pats {
		p := mustByName(name)
		// AM-OPT: time every direct candidate, keep the best runtime.
		amOpt := time.Duration(math.MaxInt64)
		_, cands, err := core.Search(p, core.SearchOptions{
			Model: models["LA"], Mode: core.ModeCount, DisableDecomposition: true,
		})
		if err == nil {
			// Sort by model cost and time the most promising 12 (full
			// exhaustive timing is prohibitive for slow orders). Search
			// arbitrates auxiliary tables only for candidates that can
			// still win; the rest carry their unadjusted model cost, an
			// upper bound. So the order is exact among the arbitrated
			// head, and every candidate after it costs more than the
			// winner, but the tail is ordered by unadjusted cost.
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })
			limit := 12
			if cfg.Quick {
				limit = 4
			}
			candBudget := cfg.Budget
			if candBudget <= 0 || candBudget > 10*time.Second {
				candBudget = 10 * time.Second
			}
			for i := range cands {
				if i >= limit {
					break
				}
				// Search keeps the winner's program only; the others
				// are rebuilt, identical to the ranked ones.
				plan, err := cands[i].Generate()
				if err != nil {
					panic(fmt.Sprintf("exp: rebuilding ranked candidate %s: %v", cands[i].Desc, err))
				}
				d, _, canceled, err := runPlanBudget(g, plan, cfg.Threads, candBudget)
				if err == nil && !canceled && d < amOpt {
					amOpt = d
				}
			}
		}
		row := []string{name}
		if amOpt == time.Duration(math.MaxInt64) {
			row = append(row, "T")
			amOpt = 0
		} else {
			row = append(row, FormatDuration(amOpt))
		}
		for _, mname := range []string{"AutoMine", "LA", "AM"} {
			best, _, err := core.Search(p, core.SearchOptions{Model: models[mname], Mode: core.ModeCount})
			if err != nil {
				row = append(row, "ERR")
				continue
			}
			d, _, canceled, err := runPlanBudget(g, best.Plan, cfg.Threads, cfg.Budget)
			switch {
			case err != nil:
				row = append(row, "ERR")
			case canceled:
				row = append(row, "T")
			default:
				row = append(row, FormatDuration(d))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// plansEqual is a debugging helper retained for the harness tests.
func plansEqual(a, b *core.Plan) bool {
	return a != nil && b != nil && ast.Print(a.Prog) == ast.Print(b.Prog)
}
