package exp

import (
	"errors"
	"fmt"
	"time"

	"decomine"
	"decomine/internal/baseline"
	"decomine/internal/graph"
)

// ObliviousCensusTotal runs the pattern-oblivious census and returns the
// total vertex-induced motif count.
func ObliviousCensusTotal(g *graph.Graph, k int) int64 {
	total, _ := ObliviousCensusTotalBudget(g, k, 0)
	return total
}

// ObliviousCensusTotalBudget is the budgeted variant.
func ObliviousCensusTotalBudget(g *graph.Graph, k int, budget time.Duration) (int64, bool) {
	census, timedOut := baseline.ObliviousMotifCensusBudget(g, k, budget)
	var total int64
	for _, c := range census {
		total += c
	}
	return total, timedOut
}

// Fig1 reproduces Figure 1: runtime vs pattern size for k-motif and
// k-cycle counting, decomposition (DecoMine) vs a pattern-aware system
// without decomposition, on the EmailEuCore-class graph.
func Fig1(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 1: pattern size vs runtime (ee-like)",
		Header: []string{"k", "DecoMine k-motif", "NoDecomp k-motif", "DecoMine k-cycle", "NoDecomp k-cycle"},
	}
	maxK := 7
	if cfg.Quick {
		maxK = 5
	}
	dm := DecoMineSys("ee", cfg)
	am := AutoMineSys("ee", cfg)
	for k := 3; k <= maxK; k++ {
		var motifDM, motifAM cell
		if k <= 6 {
			motifDM = motifTotal(dm, k, cfg.Budget)
			motifAM = motifTotal(am, k, cfg.Budget)
		} else {
			motifDM = cell{timedOut: true, dur: 0}
			motifAM = cell{timedOut: true, dur: 0}
		}
		cycleDM := cycleCount(dm, k, cfg.Budget)
		cycleAM := cycleCount(am, k, cfg.Budget)
		if !motifDM.timedOut && !motifAM.timedOut && motifDM.count != motifAM.count && motifDM.err == nil && motifAM.err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf("k=%d motif count mismatch: %d vs %d", k, motifDM.count, motifAM.count))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			motifDM.timeString(), motifAM.timeString(),
			cycleDM.timeString(), cycleAM.timeString(),
		})
	}
	t.Notes = append(t.Notes, "k=7 motif census is outside the generator's supported range; cycles continue")
	return t
}

// Tab2 reproduces Table 2: the in-house AutoMine baseline's 3/4/5-motif
// runtimes (sanity-reference for the baseline's competitiveness).
func Tab2(cfg Config) *Table {
	t := &Table{
		Title:  "Table 2: AutoMineInHouse k-motif runtimes",
		Header: []string{"app", "graph", "runtime", "total count"},
	}
	rows := []struct {
		k       int
		dataset string
	}{
		{3, "wk"}, {3, "mc"}, {3, "pt"}, {3, "lj"},
		{4, "wk"}, {4, "mc"}, {4, "pt"},
		{5, "wk"},
	}
	if cfg.Quick {
		rows = rows[:3]
	}
	for _, r := range rows {
		am := AutoMineSys(r.dataset, cfg)
		c := motifTotal(am, r.k, cfg.Budget)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d-MC", r.k), r.dataset, c.timeString(), countString(c),
		})
	}
	return t
}

func countString(c cell) string {
	if c.timedOut || c.err != nil {
		return "-"
	}
	return fmt.Sprintf("%d", c.count)
}

// Tab3 reproduces Table 3: DecoMine vs AutoMineInHouse vs the
// pattern-oblivious class (RStream/Arabesque stand-in) on motif
// counting, pseudo-clique counting and FSM.
func Tab3(cfg Config) *Table {
	t := &Table{
		Title:  "Table 3: DecoMine vs AutoMineInHouse vs Oblivious",
		Header: []string{"app", "graph", "DecoMine", "AutoMineInHouse", "Oblivious"},
		Notes: []string{
			"Oblivious = ESU + per-embedding isomorphism classification (Arabesque/RStream class)",
			"Pseudo-clique rows have no oblivious reference implementation (as in the paper)",
		},
	}
	mcRows := []struct {
		k       int
		dataset string
	}{
		{3, "cs"}, {3, "ee"}, {3, "wk"}, {3, "pt"}, {3, "mc"}, {3, "lj"},
		{4, "cs"}, {4, "ee"}, {4, "wk"}, {4, "pt"}, {4, "mc"}, {4, "lj"},
		{5, "cs"}, {5, "ee"}, {5, "wk"}, {5, "pt"},
		{6, "cs"}, {6, "ee"},
	}
	if cfg.Quick {
		mcRows = []struct {
			k       int
			dataset string
		}{{3, "cs"}, {3, "ee"}, {4, "cs"}, {4, "ee"}, {5, "cs"}}
	}
	for _, r := range mcRows {
		dm := DecoMineSys(r.dataset, cfg)
		am := AutoMineSys(r.dataset, cfg)
		cDM := motifTotal(dm, r.k, cfg.Budget)
		cAM := motifTotal(am, r.k, cfg.Budget)
		cOB := obliviousMotif(r.dataset, r.k, cfg.Budget)
		if agree(cDM, cOB) && cDM.count != cOB.count {
			t.Notes = append(t.Notes, fmt.Sprintf("%d-MC %s: count mismatch DecoMine %d vs oblivious %d", r.k, r.dataset, cDM.count, cOB.count))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d-MC", r.k), r.dataset,
			cDM.timeString(), cAM.speedupString(cDM), cOB.speedupString(cDM),
		})
	}
	// Pseudo-clique rows (7-PC, 8-PC on small graphs).
	pcRows := []struct {
		n       int
		dataset string
	}{{7, "cs"}, {7, "ee"}, {7, "wk"}, {8, "cs"}, {8, "ee"}}
	if cfg.Quick {
		pcRows = pcRows[:2]
	}
	for _, r := range pcRows {
		dm := DecoMineSys(r.dataset, cfg)
		am := AutoMineSys(r.dataset, cfg)
		cDM := pseudoCliqueTotal(dm, r.n, cfg.Budget)
		cAM := pseudoCliqueTotal(am, r.n, cfg.Budget)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d-PC", r.n), r.dataset,
			cDM.timeString(), cAM.speedupString(cDM), "-",
		})
	}
	// FSM rows.
	fsmRows := []struct {
		tau     int64
		dataset string
	}{{300, "cs"}, {300, "ee"}, {300, "mc"}, {3000, "cs"}, {3000, "ee"}, {3000, "mc"}}
	if cfg.Quick {
		fsmRows = fsmRows[:2]
	}
	for _, r := range fsmRows {
		dm := DecoMineSys(r.dataset, cfg)
		am := AutoMineSys(r.dataset, cfg)
		cDM := fsmCount(dm, r.tau, cfg.Budget)
		cAM := fsmCount(am, r.tau, cfg.Budget)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("FSM-%d", r.tau), r.dataset,
			cDM.timeString(), cAM.speedupString(cDM), "-",
		})
	}
	return t
}

func agree(a, b cell) bool {
	return a.err == nil && b.err == nil && !a.timedOut && !b.timedOut
}

// Tab4 reproduces Table 4: DecoMine vs the Peregrine-class pattern-aware
// baseline and the Fractal-class oblivious baseline, plus the FSM support
// sweep on the MiCo-class graph.
func Tab4(cfg Config) *Table {
	t := &Table{
		Title:  "Table 4: DecoMine vs Peregrine-class vs Oblivious (Fractal-class)",
		Header: []string{"app", "graph", "DecoMine", "PatternAware", "Oblivious"},
		Notes: []string{
			"PatternAware = symmetry-breaking direct plans (Peregrine class)",
			"Pangolin-GPU has no CPU-comparable stand-in and is omitted (see EXPERIMENTS.md)",
		},
	}
	mcRows := []struct {
		k       int
		dataset string
	}{{3, "cs"}, {3, "pt"}, {3, "mc"}, {4, "cs"}, {4, "pt"}, {4, "mc"}, {5, "cs"}, {5, "pt"}, {5, "mc"}, {6, "cs"}}
	if cfg.Quick {
		mcRows = mcRows[:4]
	}
	for _, r := range mcRows {
		dm := DecoMineSys(r.dataset, cfg)
		pa := AutoMineSys(r.dataset, cfg)
		cDM := motifTotal(dm, r.k, cfg.Budget)
		cPA := motifTotal(pa, r.k, cfg.Budget)
		cOB := obliviousMotif(r.dataset, r.k, cfg.Budget)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d-MC", r.k), r.dataset,
			cDM.timeString(), cPA.speedupString(cDM), cOB.speedupString(cDM),
		})
	}
	fsmRows := []struct {
		tau     int64
		dataset string
	}{{300, "mc"}, {1000, "mc"}, {3000, "mc"}}
	if cfg.Quick {
		fsmRows = fsmRows[:1]
	}
	for _, r := range fsmRows {
		dm := DecoMineSys(r.dataset, cfg)
		pa := AutoMineSys(r.dataset, cfg)
		cDM := fsmCount(dm, r.tau, cfg.Budget)
		cPA := fsmCount(pa, r.tau, cfg.Budget)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("FSM-%d", r.tau), r.dataset,
			cDM.timeString(), cPA.speedupString(cDM), "-",
		})
	}
	return t
}

// Tab5 reproduces Table 5: DecoMine (multi- and single-thread) vs
// GraphPi-like vs the native formula counter, on 4-motif counting.
func Tab5(cfg Config) *Table {
	t := &Table{
		Title:  "Table 5: DecoMine vs GraphPi-like vs native (ESCAPE-class), 4-MC",
		Header: []string{"graph", "DecoMine(MT)", "DecoMine(1T)", "GraphPi-like(1T)", "Native(1T)"},
		Notes: []string{
			"Native = closed-form degree/triangle/wedge formulas (no search, no general enumeration)",
			"The paper's 5-MC native rows need ESCAPE's DAG conversion and are documented as a deviation in EXPERIMENTS.md",
		},
	}
	datasets := []string{"ee", "wk", "pt"}
	if cfg.Quick {
		datasets = datasets[:2]
	}
	oneT := cfg
	oneT.Threads = 1
	for _, ds := range datasets {
		dmMT := DecoMineSys(ds, cfg)
		dm1 := DecoMineSys(ds, oneT)
		gp1 := GraphPiSys(ds, oneT)
		cMT := motifTotal(dmMT, 4, cfg.Budget)
		c1 := motifTotal(dm1, 4, cfg.Budget)
		cGP := motifTotal(gp1, 4, cfg.Budget)
		g := RawDataset(ds)
		cNative := timed(func() (int64, bool, error) {
			return baseline.CountNative4Motifs(g).Total(), false, nil
		})
		if agree(c1, cNative) && c1.count != cNative.count {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: count mismatch DecoMine %d vs native %d", ds, c1.count, cNative.count))
		}
		t.Rows = append(t.Rows, []string{
			ds, cMT.timeString(), c1.timeString(), cGP.speedupString(c1), cNative.speedupString(c1),
		})
	}
	return t
}

// Tab6 reproduces Table 6: 4-motif counting on the two billion-edge-class
// graphs (scaled R-MAT analogues).
func Tab6(cfg Config) *Table {
	t := &Table{
		Title:  "Table 6: large graphs, 4-MC (scaled fr-like / rmat-like)",
		Header: []string{"graph", "|V|", "|E|", "DecoMine", "PatternAware", "GraphPi-like"},
	}
	datasets := []string{"fr", "rmat"}
	if cfg.Quick {
		datasets = datasets[:1]
	}
	for _, ds := range datasets {
		g := RawDataset(ds)
		dm := DecoMineSys(ds, cfg)
		pa := AutoMineSys(ds, cfg)
		gp := GraphPiSys(ds, cfg)
		cDM := motifTotal(dm, 4, cfg.Budget)
		cPA := motifTotal(pa, 4, cfg.Budget)
		cGP := motifTotal(gp, 4, cfg.Budget)
		t.Rows = append(t.Rows, []string{
			ds, fmt.Sprintf("%d", g.NumVertices()), fmt.Sprintf("%d", g.NumEdges()),
			cDM.timeString(), cPA.speedupString(cDM), cGP.speedupString(cDM),
		})
	}
	return t
}

// Tab7 reproduces Table 7: large-pattern (6/7/8-cycle) mining.
func Tab7(cfg Config) *Table {
	t := &Table{
		Title:  "Table 7: large patterns (k-cycle mining)",
		Header: []string{"graph", "app", "DecoMine", "PatternAware", "GraphPi-like"},
	}
	rows := []struct {
		dataset string
		k       int
	}{
		{"ee", 6}, {"ee", 7}, {"ee", 8},
		{"pt", 6}, {"pt", 7},
		{"wk", 6}, {"wk", 7},
	}
	if cfg.Quick {
		rows = rows[:2]
	}
	for _, r := range rows {
		dm := DecoMineSys(r.dataset, cfg)
		pa := AutoMineSys(r.dataset, cfg)
		gp := GraphPiSys(r.dataset, cfg)
		cDM := cycleCount(dm, r.k, cfg.Budget)
		cPA := cycleCount(pa, r.k, cfg.Budget)
		cGP := cycleCount(gp, r.k, cfg.Budget)
		if agree(cDM, cGP) && cDM.count != cGP.count {
			t.Notes = append(t.Notes, fmt.Sprintf("%s %d-cycle mismatch: %d vs %d", r.dataset, r.k, cDM.count, cGP.count))
		}
		t.Rows = append(t.Rows, []string{
			r.dataset, fmt.Sprintf("%d-cycle", r.k),
			cDM.timeString(), cPA.speedupString(cDM), cGP.speedupString(cDM),
		})
	}
	return t
}

// Fig16 reproduces Figure 16: multithread scalability of 5-MC. On a
// single-core container wall time cannot scale, so the table reports,
// alongside wall time, the dynamic-scheduling load balance
// (max/min outer-loop iterations per worker), which is the mechanism the
// paper's linear scaling rests on.
func Fig16(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 16: scalability with threads (5-MC on pt-like)",
		Header: []string{"threads", "runtime", "work max/min"},
		Notes:  []string{"wall-clock scaling requires physical cores; see EXPERIMENTS.md"},
	}
	dataset := "pt"
	k := 5
	if cfg.Quick {
		dataset, k = "ee", 4
	}
	for _, threads := range []int{1, 2, 4, 8, 16} {
		c := cfg
		c.Threads = threads
		sys := DecoMineSys(dataset, c)
		m := motifTotal(sys, k, cfg.Budget)
		balance := "-"
		if wmax, wmin, ok := workBalance(sys, k, cfg.Budget); ok {
			balance = fmt.Sprintf("%.2f", float64(wmax)/float64(max64(wmin, 1)))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", threads), m.timeString(), balance})
	}
	return t
}

// workBalance reruns one representative pattern and reads the
// instructions each worker executed from its Result.Stats.WorkPerThread.
func workBalance(sys *decomine.System, k int, budget time.Duration) (int64, int64, bool) {
	r, err := sys.CountPattern(decomine.MotifPatterns(k)[0], decomine.QueryOpts{Deadline: deadline(budget)})
	if err != nil || len(r.Stats.WorkPerThread) == 0 {
		return 0, 0, false
	}
	work := r.Stats.WorkPerThread
	wmax, wmin := work[0], work[0]
	for _, w := range work {
		if w > wmax {
			wmax = w
		}
		if w < wmin {
			wmin = w
		}
	}
	return wmax, wmin, true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Fig17 reproduces Figure 17: FSM runtime and speedup vs support
// threshold on the MiCo-class graph.
func Fig17(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 17: FSM sensitivity to support threshold (mc-like)",
		Header: []string{"support", "DecoMine", "AutoMineInHouse", "speedup"},
	}
	thresholds := []int64{100, 300, 1000, 3000, 10000, 30000}
	if cfg.Quick {
		thresholds = []int64{1000, 10000}
	}
	dm := DecoMineSys("mc", cfg)
	am := AutoMineSys("mc", cfg)
	for _, tau := range thresholds {
		cDM := fsmCount(dm, tau, cfg.Budget)
		cAM := fsmCount(am, tau, cfg.Budget)
		sp := "-"
		if agree(cDM, cAM) && cDM.dur > 0 {
			sp = fmt.Sprintf("%.1fx", float64(cAM.dur)/float64(cDM.dur))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", tau), cDM.timeString(), cAM.timeString(), sp,
		})
	}
	return t
}

// Sec86 reproduces §8.6: the label-constrained query ("A,B,C different
// labels; B,D,E same label" on the Figure 6 pattern), DecoMine's
// partially-materialized constraint resolution vs the pattern-aware
// whole-embedding baseline.
func Sec86(cfg Config) *Table {
	t := &Table{
		Title:  "Section 8.6: label-constrained query (fig6 pattern)",
		Header: []string{"graph", "DecoMine", "PatternAware", "counts agree"},
	}
	datasets := []string{"cs", "ee", "mc"}
	if cfg.Quick {
		datasets = datasets[:2]
	}
	p, _ := decomine.PatternByName("fig6")
	cons := []decomine.LabelConstraint{
		{Kind: decomine.AllDifferentLabels, Vertices: []int{0, 1, 2}},
		{Kind: decomine.AllSameLabel, Vertices: []int{1, 3, 4}},
	}
	for _, ds := range datasets {
		dm := DecoMineSys(ds, cfg)
		pa := AutoMineSys(ds, cfg)
		cDM := timed(func() (int64, bool, error) {
			c, err := dm.CountWithConstraints(p, cons)
			return c, false, err
		})
		cPA := timed(func() (int64, bool, error) {
			c, err := pa.CountWithConstraints(p, cons)
			return c, false, err
		})
		match := "-"
		if cDM.err == nil && cPA.err == nil {
			match = fmt.Sprintf("%v", cDM.count == cPA.count)
		}
		t.Rows = append(t.Rows, []string{ds, cDM.speedupString(cDM), cPA.speedupString(cDM), match})
	}
	return t
}

// Fig18 reproduces Figure 18: compilation time vs execution time for
// k-motif counting, split by the batch layer's own accounting
// (BatchStats.CompileTime: algorithm search on plan-cache misses;
// ExecTime: the execution waves).
func Fig18(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 18: compilation vs execution time (k-MC)",
		Header: []string{"app", "graph", "compile", "execute", "ratio"},
	}
	rows := []struct {
		k       int
		dataset string
	}{{3, "wk"}, {4, "wk"}, {5, "wk"}, {6, "wk"}, {3, "pt"}, {4, "pt"}}
	if cfg.Quick {
		rows = rows[:3]
	}
	for _, r := range rows {
		// Fresh system so plan caches start cold and compile time is
		// fully observed.
		sys := decomine.NewSystem(mustDataset(r.dataset), decomine.Options{
			Threads:            cfg.Threads,
			ProfileSampleEdges: 100_000,
			ProfileTrials:      20_000,
		})
		app := fmt.Sprintf("%d-MC", r.k)
		br, err := sys.CountPatterns(decomine.MotifPatterns(r.k), decomine.BatchOpts{Induced: true, Deadline: deadline(cfg.Budget)})
		switch {
		case errors.Is(err, decomine.ErrCanceled):
			t.Rows = append(t.Rows, []string{app, r.dataset, "-", "T", "-"})
		case err != nil:
			t.Rows = append(t.Rows, []string{app, r.dataset, "ERR", "ERR", "-"})
		default:
			compile, exec := br.Stats.CompileTime, br.Stats.ExecTime
			ratio := "-"
			if compile > 0 {
				ratio = fmt.Sprintf("%.0fx", float64(exec)/float64(compile))
			}
			t.Rows = append(t.Rows, []string{app, r.dataset, FormatDuration(compile), FormatDuration(exec), ratio})
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s on %s: the cost-model profile's edge sampling took %s (in neither column; its lazy estimates are compile time)",
			app, r.dataset, FormatDuration(sys.ProfileTime)))
		sys.Close()
	}
	return t
}
