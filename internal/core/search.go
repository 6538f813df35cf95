package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decomine/internal/ast"
	"decomine/internal/cost"
	"decomine/internal/decomp"
	"decomine/internal/obs"
	"decomine/internal/pattern"
)

// Compiler-side feeds into the shared metrics registry, updated once
// per algorithm search.
var (
	obsSearches   = obs.Default.Counter("compile.searches")
	obsSearchNS   = obs.Default.Counter("compile.search_ns")
	obsCandidates = obs.Default.Histogram("compile.candidates")
)

// SearchOptions configures the algorithm search (paper §7.3).
type SearchOptions struct {
	// Model ranks candidate ASTs. Required.
	Model cost.Model
	Mode  Mode
	// Induced searches direct vertex-induced plans instead of
	// edge-induced ones (decomposition candidates are skipped: the
	// decomposition algebra is edge-induced; the vertex-induced
	// conversion happens in the application layer).
	Induced bool
	// DisableDecomposition restricts the search to direct plans — the
	// AutoMine-style baseline configuration.
	DisableDecomposition bool
	// DisableDirect restricts the search to decomposition plans.
	DisableDirect bool
	// DisablePLR turns off pattern-aware loop rewriting candidates.
	DisablePLR bool
	// DisableCountLastLoop turns off the last-loop set-size counting
	// optimization (GraphPi's "mathematical" optimization); used to model
	// baselines that lack it.
	DisableCountLastLoop bool
	// MaxCandidates caps the number of specs considered, in spec order
	// (0 = 600): every generated candidate and every twin spec (see
	// Search) takes one slot.
	MaxCandidates int
	// Constraints restricts counting to embeddings satisfying the group
	// label constraints (§7.5). Decomposition candidates that cannot
	// resolve the constraints are skipped automatically.
	Constraints []LabelConstraint
	// SkipShrinkCodes forwards to DecompSpec.SkipShrinkCodes: shrinkage
	// quotients whose canonical code is in the set are externalized
	// (their loops are skipped and their contribution must be supplied
	// to Plan.ExtractCount by the host). Used by the batch layer to
	// share standalone subquery counts across queries.
	SkipShrinkCodes map[pattern.Code]bool
	// Stats, when non-nil, receives the phase split of this search
	// (candidate enumeration vs cost-model ranking) for query tracing.
	Stats *SearchStats
	// Workers is how many goroutines prepare and rank candidates (0 =
	// GOMAXPROCS; 1 works inline): generation, the middle-end
	// optimizer, the cost model and the auxiliary-graph arbitration of
	// the candidates that can still win. Candidates are collected in
	// spec order, every cost is a pure function of its candidate, and
	// the arbitration bound is taken after collection, so the result
	// does not depend on it.
	Workers int
	// Mode ModeEmit additionally requires partial-embedding emission.
}

// SearchStats reports how one algorithm search spent its time.
// EnumerateTime + RankTime is the search's wall time. The first phase
// is split in proportion to the time the workers spent preparing
// candidates (generation and the middle-end optimizer) and costing
// them (cost-model evaluation); the second phase, the auxiliary-graph
// arbitration, counts as ranking. Candidates is the number of distinct
// plans ranked; Twins the number of specs skipped because an earlier
// spec generates the same program (each still took its MaxCandidates
// slot).
type SearchStats struct {
	EnumerateTime time.Duration
	RankTime      time.Duration
	Candidates    int
	Twins         int
}

// Candidate is one ranked candidate: its estimated cost, what its plan
// is, and the plan itself for the winner.
type Candidate struct {
	// Plan is the candidate's optimized plan, set on the winner (the
	// first candidate of the ranked list) only: Search drops every other
	// candidate's program once that candidate can no longer win.
	// Generate rebuilds it.
	Plan *Plan
	// Cost is the model cost with the auxiliary-table rank adjustment
	// folded in (cost.AuxArbiter.RankAdjust) for every candidate that
	// could still win at the full discount. For the others it is the
	// unadjusted model cost, an upper bound on the adjusted one that
	// already exceeds the winner's. The winner Search returns keeps its
	// ranked cost when its plan is re-emitted cut-symmetric.
	Cost float64
	// Desc is the plan's Desc.
	Desc string

	spec  candidateSpec
	model cost.Model
}

// Generate returns the candidate's plan: Plan when Search kept it, else
// a fresh build of the same program, optimized and wired to the search's
// cost model for auxiliary-table arbitration as Search built it.
func (c *Candidate) Generate() (*Plan, error) {
	if c.Plan != nil {
		return c.Plan, nil
	}
	plan, _, err := buildPlan(c.spec, c.model, nil)
	return plan, err
}

// recyclers hands each search a node recycler that outlives it, so a
// search starts on the nodes its predecessors on the same processor
// dropped.
var recyclers = sync.Pool{New: func() any { return new(ast.Recycler) }}

// Search generates the candidate space for p, costs every distinct
// candidate, and returns the best plan plus the ranked list of them.
//
// The search is a generate → rank → arbitrate pipeline that does the
// expensive work once per distinct plan that could win:
//
//  1. A spec whose decomposition is a twin of an earlier one (same
//     cut, subpattern and shrinkage spellings; see decompSignature)
//     would generate the same program as its earlier counterpart. It
//     keeps its MaxCandidates slot but is never generated or costed;
//     its counterpart comes first in spec order and would win any tie.
//  2. Every other spec is generated, optimized and costed by the model
//     on opts.Workers goroutines; the calling goroutine collects the
//     results in spec order and keeps the first MaxCandidates slots.
//  3. Let m be the cheapest model cost. Only candidates whose
//     cost.RankFloor is at most m rank at their cost with the
//     auxiliary-graph arbiter's rank adjustment folded in. Every other
//     candidate's adjusted cost would exceed m, which is at least the
//     winner's, so it can neither win nor tie, and it ranks at its
//     model cost.
//  4. The winner, when it is a decomposed count plan whose cut has a
//     nontrivial stabilizer, is re-emitted with its cutting set
//     symmetry-broken (cutSymmetric). The ranked list keeps the ranked
//     program of the winner and the cost and description of every
//     candidate.
//
// The arbiter runs on the workers, right after the model cost, for
// every candidate whose RankFloor is at most the cheapest model cost
// collected so far: that cost is at least m, so every candidate step 3
// adjusts is among them (on the 28 six-vertex motifs of the
// compile6-cold-gnp workload they are 4 % more than step 3 needs). So
// each candidate's ranked cost is known when it is collected, and a
// search holds one program: the cheapest so far. Every other program
// goes, as soon as its candidate is collected, to the recycler the next
// candidates are built from.
//
// A cost depends only on its candidate (the approximate-mining
// profile's estimates are pure functions of the shape), and m is taken
// after collection, so neither the worker count nor goroutine timing
// changes any ranked cost.
func Search(p *pattern.Pattern, opts SearchOptions) (*Candidate, []Candidate, error) {
	if opts.Model == nil {
		return nil, nil, fmt.Errorf("core: search requires a cost model")
	}
	maxCand := opts.MaxCandidates
	if maxCand == 0 {
		maxCand = 600
	}
	if !p.Connected() {
		return nil, nil, fmt.Errorf("core: pattern %s is not connected", p)
	}

	searchStart := time.Now()
	specs := candidateGenerators(p, opts)
	rec := recyclers.Get().(*ast.Recycler)
	defer recyclers.Put(rec)
	// collected is the cheapest model cost collected so far (float64
	// bits), read by the workers: it only falls, and it never falls
	// below m.
	var collected atomic.Uint64
	collected.Store(math.Float64bits(math.Inf(1)))
	prepare := func(i int) prepared {
		if specs[i].twin >= 0 {
			return prepared{}
		}
		start := time.Now()
		plan, arb, err := buildPlan(specs[i], opts.Model, rec)
		if err != nil {
			return prepared{prepTime: time.Since(start)}
		}
		rankStart := time.Now()
		c := prepared{plan: plan, cost: opts.Model.Cost(plan.Prog)}
		c.ranked = c.cost
		if arb != nil && cost.RankFloor(c.cost) <= math.Min(c.cost, math.Float64frombits(collected.Load())) {
			// Fold each applied aux table's estimated net gain into the
			// plan's rank: a plan whose deep loops prune harder through
			// aux rows outranks the same traversal without them. Only the
			// verdicts are kept and the bytecode clean-up pass is skipped.
			c.ranked = arb.RankAdjust(c.cost, ast.AuxDecisions(plan.Prog, plan.LowerOpts))
		}
		end := time.Now()
		c.prepTime, c.rankTime = rankStart.Sub(start), end.Sub(rankStart)
		return c
	}

	var prepTime, rankTime time.Duration
	var cands []Candidate
	var ranked []float64 // prepared.ranked, by candidate
	generated := make([]bool, len(specs))
	slots, twins := 0, 0
	m := math.Inf(1)
	best, bestCost := -1, math.Inf(1)
	collect := func(i int, c prepared) bool {
		if slots >= maxCand {
			return false
		}
		prepTime += c.prepTime
		if t := specs[i].twin; t >= 0 {
			// A twin takes a slot exactly when its counterpart did.
			if generated[t] {
				slots++
				twins++
			}
			return slots < maxCand
		}
		if c.plan == nil {
			return true
		}
		generated[i] = true
		slots++
		rankTime += c.rankTime
		if c.cost < m {
			m = c.cost
			collected.Store(math.Float64bits(m))
		}
		k := len(cands)
		cands = append(cands, Candidate{Cost: c.cost, Desc: c.plan.Desc, spec: specs[i], model: opts.Model})
		ranked = append(ranked, c.ranked)
		// The cheapest so far by ranked cost, the first of equal ones,
		// keeps its program. A ranked cost differs from the ranked
		// list's Cost only where neither can win (step 3), so this is
		// the candidate the list ranks first.
		if best < 0 || c.ranked < bestCost {
			if best >= 0 {
				rec.Release(cands[best].Plan.Prog)
				cands[best].Plan = nil
			}
			best, bestCost = k, c.ranked
			cands[k].Plan = c.plan
		} else {
			rec.Release(c.plan.Prog)
		}
		return slots < maxCand
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inOrder(len(specs), workers, prepare, collect)

	total := time.Since(searchStart)
	obsSearches.Inc()
	obsSearchNS.Add(total.Nanoseconds())
	obsCandidates.Observe(int64(len(cands)))
	if opts.Stats != nil {
		var enum time.Duration
		if busy := prepTime + rankTime; busy > 0 {
			enum = time.Duration(float64(total) * float64(prepTime) / float64(busy))
		}
		opts.Stats.EnumerateTime = enum
		opts.Stats.RankTime = total - enum
		opts.Stats.Candidates = len(cands)
		opts.Stats.Twins = twins
	}
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("core: no candidates for %s", p)
	}
	for k := range cands {
		// Every candidate with an arbiter and RankFloor(cost) <= m was
		// arbitrated; for the others ranked is their model cost.
		if cost.RankFloor(cands[k].Cost) <= m {
			cands[k].Cost = ranked[k]
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })
	winner := cands[0]
	winner.Plan = cutSymmetric(winner.Plan, opts.Model, rec)
	return &winner, cands, nil
}

// buildPlan generates a spec's plan from rec's free nodes (rec may be
// nil), optimizes it, and wires model's auxiliary-graph arbiter into
// its lowering: the winner lowers fully, with this model arbitrating
// materialize-vs-recompute, on its first run.
func buildPlan(spec candidateSpec, model cost.Model, rec *ast.Recycler) (*Plan, *cost.AuxArbiter, error) {
	plan, err := spec.gen(rec)
	if err != nil {
		return nil, nil, err
	}
	ast.Optimize(plan.Prog)
	arb := cost.AuxDecider(model, plan.Prog)
	if arb != nil {
		plan.LowerOpts.AuxDecide = arb.Decide
	}
	return plan, arb, nil
}

// cutSymmetric re-emits a decomposed, unconstrained count plan with its
// cutting set symmetry-broken by the cut's stabilizer (DecompSpec.cutSym)
// and returns any other plan, or one whose cut has a trivial
// stabilizer, unchanged. The ranking stays on the unrestricted
// programs: the re-emitted one runs the same body for a subset of the
// ranked plan's cut tuples, so it does at most the ranked plan's work
// (DESIGN "Cut symmetry").
func cutSymmetric(plan *Plan, model cost.Model, rec *ast.Recycler) *Plan {
	if plan.spec == nil || plan.spec.Mode != ModeCount || len(plan.spec.Constraints) > 0 {
		return plan
	}
	spec := *plan.spec
	spec.cutSym = true
	sym, _, err := buildPlan(candidateSpec{decomp: &spec}, model, rec)
	if err != nil || sym.CutSym == 0 {
		if sym != nil {
			rec.Release(sym.Prog)
		}
		return plan
	}
	return sym
}

// prepared is one costed candidate: its optimized plan, its unadjusted
// model cost, its ranked cost (the arbitrated cost when the arbiter
// ran, the model cost otherwise), and the time spent preparing and
// ranking it (nil plan: the generator rejected the spec, or the spec is
// a twin).
type prepared struct {
	plan               *Plan
	cost, ranked       float64
	prepTime, rankTime time.Duration
}

// candidateSpec is one entry of the search's spec order: a direct or a
// decomposition spec and, for a twin, the index of the earlier spec
// that generates the same program (-1 otherwise). Search never
// generates a twin.
type candidateSpec struct {
	direct *DirectSpec
	decomp *DecompSpec
	twin   int
}

// gen generates the spec's plan from r's free nodes (r may be nil).
func (s candidateSpec) gen(r *ast.Recycler) (*Plan, error) {
	if s.direct != nil {
		return generateDirect(*s.direct, r)
	}
	return generateDecomposed(*s.decomp, r)
}

// maxOrdersPerChoice caps the matching-order variants per structure
// choice: the direct plans' matching orders, and each decomposition's
// cut orders.
const maxOrdersPerChoice = 24

// candidateGenerators lists p's candidate specs in the order they are
// costed: direct plans by matching order, then decomposition plans cut
// by cut. An unconstrained decomposition whose signature matches an
// earlier cut's (a cut some automorphism of p maps onto the earlier
// one) lists its specs as twins of the earlier cut's, position by
// position: decompSpecs derives both lists from the same signature.
// Within a cut, a PLR spec that generates an earlier spec's program is
// a twin of that spec (decompSpecs). Every twin names a first
// occurrence.
func candidateGenerators(p *pattern.Pattern, opts SearchOptions) []candidateSpec {
	var specs []candidateSpec
	if !opts.DisableDirect {
		orders := matchingOrders(p, maxOrdersPerChoice)
		direct := make([]DirectSpec, len(orders))
		for i, order := range orders {
			direct[i] = DirectSpec{
				Pattern: p,
				Order:   order,
				// Emission mode must deliver every matching (the
				// completeness property): symmetry breaking would hide
				// the non-canonical ones.
				SymmetryBreak: len(opts.Constraints) == 0 && opts.Mode == ModeCount,
				Induced:       opts.Induced,
				CountLastLoop: opts.Mode == ModeCount && !opts.DisableCountLastLoop,
				Constraints:   opts.Constraints,
				Mode:          opts.Mode,
			}
			specs = append(specs, candidateSpec{direct: &direct[i], twin: -1})
		}
	}
	// Decomposition plans (edge-induced only).
	if !opts.DisableDecomposition && !opts.Induced {
		cuts := decomp.CuttingSets(p)
		sortCuts(p, cuts)
		firstSpec := map[string]int{} // signature -> index of its cut's first spec
		for _, cut := range cuts {
			d, err := decomp.Decompose(p, cut)
			if err != nil {
				continue
			}
			first := -1
			if len(opts.Constraints) == 0 {
				sig := decompSignature(d)
				if f, ok := firstSpec[sig]; ok {
					first = f
				} else {
					firstSpec[sig] = len(specs)
				}
			}
			cutSpecs, plrTwin := decompSpecs(d, opts)
			base := len(specs)
			for k := range cutSpecs {
				twin := -1
				switch {
				case first >= 0:
					// The counterpart may itself be a PLR twin: name
					// its first occurrence.
					twin = first + k
					if t := specs[twin].twin; t >= 0 {
						twin = t
					}
				case plrTwin[k] >= 0:
					twin = base + plrTwin[k]
				}
				specs = append(specs, candidateSpec{decomp: &cutSpecs[k], twin: twin})
			}
		}
	}
	return specs
}

// decompSignature spells everything an unconstrained GenerateDecomposed
// and decompSpecs read from d: the cut pattern in cut-position order,
// each subpattern's spelling, and each shrinkage's spelling and
// projection. Whole-pattern vertex IDs (CutVerts, Blocks, CompMask,
// ToWhole) are read only for label constraints and Plan.Desc, so two
// decompositions with equal signatures generate the same program for
// every spec. Above four cut vertices decompSpecs samples cut orders
// from a stream seeded by CutMask, so the mask joins the signature.
func decompSignature(d *decomp.Decomposition) string {
	var sb strings.Builder
	cut := d.CutPattern()
	fmt.Fprintf(&sb, "c%d:%s", cut.NumVertices(), cut)
	if len(d.CutVerts) > 4 {
		fmt.Fprintf(&sb, "@%d", d.CutMask)
	}
	for _, sp := range d.Subpatterns {
		fmt.Fprintf(&sb, "|s%d:%s", sp.Pat.NumVertices(), sp.Pat)
	}
	for _, sh := range d.Shrinkages {
		fmt.Fprintf(&sb, "|q%d:%s%v", sh.Pat.NumVertices(), sh.Pat, sh.Proj)
	}
	return sb.String()
}

// inOrder runs prepare(0..n-1) on up to workers goroutines and hands
// each result to use on the calling goroutine in index order, stopping
// once use returns false. Workers run at most 8·workers indices ahead
// of use, so little is prepared past the stopping point; that little is
// discarded. With one worker every prepare runs inline, immediately
// before its use.
func inOrder[T any](n, workers int, prepare func(int) T, use func(int, T) bool) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !use(i, prepare(i)) {
				return
			}
		}
		return
	}
	results := make([]T, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	// A worker takes a token before it takes an index; use returns one
	// per consumed result. Eight per worker keeps every worker busy
	// while the caller waits for a slow candidate at the head of the
	// order.
	ahead := make(chan struct{}, 8*workers)
	for i := 0; i < cap(ahead); i++ {
		ahead <- struct{}{}
	}
	done := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ahead:
				case <-done:
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				results[i] = prepare(i)
				close(ready[i])
			}
		}()
	}
	var zero T
	for i := 0; i < n; i++ {
		<-ready[i]
		ahead <- struct{}{}
		r := results[i]
		results[i] = zero // use decides what outlives it
		if !use(i, r) {
			break
		}
	}
	close(done)
	wg.Wait()
}

// Wave runs search(0..n-1) side by side, at most workers at a time, and
// returns once every call has. Each call gets the worker count its
// search may use (SearchOptions.Workers): 1 when the wave holds more
// than one search, so the wave's concurrency replaces the search's own,
// and workers when the wave holds a single search. A search's result
// does not depend on its worker count, so neither does the wave's.
func Wave(n, workers int, search func(i, workers int)) {
	if n == 1 {
		search(0, workers)
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			search(i, 1)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				search(i, 1)
			}
		}()
	}
	wg.Wait()
}

// sortCuts orders cutting sets: smaller cuts first, then by component
// balance (balanced splits give smaller subpatterns).
func sortCuts(p *pattern.Pattern, cuts []uint32) {
	score := func(cut uint32) (int, int) {
		comps := p.ComponentsAvoiding(cut)
		maxC := 0
		for _, c := range comps {
			if n := bits.OnesCount32(c); n > maxC {
				maxC = n
			}
		}
		return bits.OnesCount32(cut), maxC
	}
	sort.SliceStable(cuts, func(i, j int) bool {
		si, mi := score(cuts[i])
		sj, mj := score(cuts[j])
		if mi != mj {
			return mi < mj // smaller largest-component first
		}
		if si != sj {
			return si < sj
		}
		return cuts[i] < cuts[j]
	})
}

// matchingOrders enumerates connected matching orders of p, up to max.
// For small patterns this is every connected permutation; for larger
// ones a deterministic degree-guided sample.
func matchingOrders(p *pattern.Pattern, max int) [][]int {
	n := p.NumVertices()
	var out [][]int
	perm := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(out) >= max {
			return
		}
		if len(perm) == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			// Connectivity: every vertex after the first must touch an
			// earlier one (otherwise the loop candidate is all of V).
			if len(perm) > 0 {
				adj := false
				for _, u := range perm {
					if p.HasEdge(u, v) {
						adj = true
						break
					}
				}
				if !adj {
					continue
				}
			}
			used[v] = true
			perm = append(perm, v)
			rec()
			perm = perm[:len(perm)-1]
			used[v] = false
		}
	}
	rec()
	if len(out) == 0 { // disconnected pattern: identity fallback
		out = append(out, iota_(n))
	}
	return out
}

// decompSpecs enumerates matching-order variants for one decomposition:
// cut orders × PLR depths, with extension orders chosen per subpattern
// (identity plus a degree-greedy order). twin[i] is the index of the
// earlier spec whose program spec i generates byte for byte, or -1:
//
//   - PLR at depth k is a no-op when the prefix CutOrder[:k] spans a
//     cut subgraph without automorphisms, and GenerateDecomposed drops
//     it under label constraints, so such a spec generates its depth-0
//     sibling's program (same cut order and subpattern orders).
//   - Otherwise the program depends on the cut order only through the
//     continuation CutOrder[k:] (hence the set of prefix cut positions)
//     and the labeled prefix graph spelled in order positions: the cut
//     loops fold their operands in binding order, and the replays run
//     in canonical order (sortReplays). Specs that agree on those, on
//     k and on the subpattern orders are twins of the first of them.
func decompSpecs(d *decomp.Decomposition, opts SearchOptions) (specs []DecompSpec, twin []int) {
	nCut := len(d.CutVerts)
	var cutOrders [][]int
	if nCut <= 4 {
		cutOrders = permutations(nCut)
	} else {
		cutOrders = append(cutOrders, iota_(nCut))
		r := rand.New(rand.NewSource(int64(nCut)*7919 + int64(d.CutMask)))
		for i := 0; i < 6; i++ {
			cutOrders = append(cutOrders, r.Perm(nCut))
		}
	}
	if len(cutOrders) > maxOrdersPerChoice {
		cutOrders = cutOrders[:maxOrdersPerChoice]
	}

	// The subpattern orders of variant 0 (each subpattern's identity
	// order) and of variant 1 (each one's degree-greedy order). Variant 1
	// exists only when every subpattern has a second order: as soon as
	// one lacks it, variant 1 is dropped, even where other subpatterns
	// have one.
	variants := [][][]int{make([][]int, len(d.Subpatterns)), make([][]int, len(d.Subpatterns))}
	for i, sp := range d.Subpatterns {
		so := extensionOrders(sp.Pat, nCut, 2)
		variants[0][i] = so[0]
		if len(so) == 1 {
			variants = variants[:1]
		} else if len(variants) == 2 {
			variants[1][i] = so[1]
		}
	}
	shrinkOrders := make([][]int, len(d.Shrinkages))
	for j, s := range d.Shrinkages {
		shrinkOrders[j] = extensionOrders(s.Pat, nCut, 1)[0]
	}

	plrDepths := []int{0}
	if !opts.DisablePLR {
		for k := 2; k <= nCut; k++ {
			plrDepths = append(plrDepths, k)
		}
	}
	specs = make([]DecompSpec, 0, len(cutOrders)*len(plrDepths)*len(variants))
	twin = make([]int, 0, cap(specs))

	cutPat := d.CutPattern()
	// symmetric memoizes, by prefix vertex set, whether the cut subgraph
	// a PLR prefix spans has a nontrivial automorphism (how many it has
	// does not depend on the order the prefix lists its vertices in).
	symmetric := map[uint32]bool{}
	type twinKey struct {
		plr     string // plrSpelling
		variant int    // decides SubOrders
	}
	firstOf := map[twinKey]int{}
	for _, co := range cutOrders {
		depth0 := [2]int{-1, -1} // variant -> index of its depth-0 spec
		// Cross subpattern-order variants (small: <= 2 per subpattern).
		for _, plr := range plrDepths {
			var plrKey string // "" when PLR is a no-op at this depth
			if plr > 0 && len(opts.Constraints) == 0 {
				var set uint32
				for _, u := range co[:plr] {
					set |= 1 << uint(u)
				}
				sym, seen := symmetric[set]
				if !seen {
					sym = len(cutPat.InducedSub(co[:plr]).Automorphisms()) > 1
					symmetric[set] = sym
				}
				if sym {
					plrKey = plrSpelling(cutPat, co, plr)
				}
			}
			for variant, subOrders := range variants {
				spec := DecompSpec{
					D:               d,
					CutOrder:        co,
					SubOrders:       subOrders,
					PLRDepth:        plr,
					Mode:            opts.Mode,
					Constraints:     opts.Constraints,
					ShrinkOrders:    shrinkOrders,
					SkipShrinkCodes: opts.SkipShrinkCodes,
				}
				t := -1
				switch {
				case plr == 0:
					depth0[variant] = len(specs)
				case plrKey == "":
					t = depth0[variant]
				default:
					key := twinKey{plrKey, variant}
					if f, seen := firstOf[key]; seen {
						t = f
					} else {
						firstOf[key] = len(specs)
					}
				}
				specs = append(specs, spec)
				twin = append(twin, t)
			}
		}
	}
	return specs, twin
}

// plrSpelling spells what a PLR spec of depth k reads from its cut
// order: the labeled prefix graph cutPat[co[:k]] in order positions
// (one adjacency row and one label per position) and the continuation
// co[k:], which also fixes the set of prefix cut positions.
func plrSpelling(cutPat *pattern.Pattern, co []int, k int) string {
	b := make([]byte, 0, 8*k+len(co)-k)
	for i, u := range co[:k] {
		var row uint32
		for j, w := range co[:i] {
			if cutPat.HasEdge(u, w) {
				row |= 1 << uint(j)
			}
		}
		b = binary.LittleEndian.AppendUint32(b, row)
		b = binary.LittleEndian.AppendUint32(b, cutPat.Label(u))
	}
	for _, p := range co[k:] {
		b = append(b, byte(p))
	}
	return string(b)
}

// permutations returns all permutations of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	perm := iota_(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// extensionOrders returns up to max extension orders (offsets past the
// cut prefix) for a sub/shrinkage pattern: identity and a degree-greedy
// order (most-constrained-first).
func extensionOrders(pat *pattern.Pattern, nCut, max int) [][]int {
	nExt := pat.NumVertices() - nCut
	orders := [][]int{iota_(nExt)}
	if max < 2 || nExt < 2 {
		return orders
	}
	greedy := make([]int, 0, nExt)
	used := make([]bool, nExt)
	for len(greedy) < nExt {
		best, bestDeg := -1, -1
		for e := 0; e < nExt; e++ {
			if used[e] {
				continue
			}
			deg := 0
			pv := nCut + e
			for j := 0; j < nCut; j++ {
				if pat.HasEdge(pv, j) {
					deg++
				}
			}
			for _, ge := range greedy {
				if pat.HasEdge(pv, nCut+ge) {
					deg++
				}
			}
			if deg > bestDeg {
				best, bestDeg = e, deg
			}
		}
		greedy = append(greedy, best)
		used[best] = true
	}
	same := true
	for i := range greedy {
		if greedy[i] != orders[0][i] {
			same = false
			break
		}
	}
	if !same {
		orders = append(orders, greedy)
	}
	return orders
}

// RandomSpec draws one uniformly random implementation choice for p: a
// random cutting set (or none), random matching orders, random PLR. Used
// by the cost-model evaluation experiment (Figure 11b).
func RandomSpec(p *pattern.Pattern, mode Mode, r *rand.Rand) (*Plan, error) {
	cuts := decomp.CuttingSets(p)
	if len(cuts) > 0 && r.Intn(4) != 0 { // 3/4 decomposed, 1/4 direct
		cut := cuts[r.Intn(len(cuts))]
		d, err := decomp.Decompose(p, cut)
		if err != nil {
			return nil, err
		}
		spec := DecompSpec{D: d, Mode: mode}
		spec.CutOrder = r.Perm(len(d.CutVerts))
		for _, sp := range d.Subpatterns {
			spec.SubOrders = append(spec.SubOrders, r.Perm(sp.Pat.NumVertices()-len(d.CutVerts)))
		}
		for _, s := range d.Shrinkages {
			spec.ShrinkOrders = append(spec.ShrinkOrders, r.Perm(s.Pat.NumVertices()-len(d.CutVerts)))
		}
		if len(d.CutVerts) >= 2 && r.Intn(2) == 0 {
			spec.PLRDepth = 2 + r.Intn(len(d.CutVerts)-1)
		}
		plan, err := GenerateDecomposed(spec)
		if err != nil {
			return nil, err
		}
		ast.Optimize(plan.Prog)
		return plan, nil
	}
	orders := matchingOrders(p, 1000)
	order := orders[r.Intn(len(orders))]
	plan, err := GenerateDirect(DirectSpec{
		Pattern:       p,
		Order:         order,
		SymmetryBreak: true,
		CountLastLoop: mode == ModeCount,
		Mode:          mode,
	})
	if err != nil {
		return nil, err
	}
	ast.Optimize(plan.Prog)
	return plan, nil
}

// PlanPseudocode renders a plan's optimized AST as indented pseudo-code
// (the notation used in the paper's figures), with the windows its
// bytecode runs its intersections under (Lowered.Pseudocode).
func PlanPseudocode(p *Plan) string { return p.Lowered().Pseudocode() }

// PlanDisassembly renders the plan's lowered bytecode one instruction
// per line — the form the VM actually executes.
func PlanDisassembly(p *Plan) string { return p.Lowered().Disassemble() }

// PlanAuxSummary renders the auxiliary-graph pass's decisions for the
// plan ("" when the pass found no candidate tables or was disabled).
func PlanAuxSummary(p *Plan) string { return p.Lowered().AuxSummary() }
