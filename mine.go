package decomine

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/engine"
	"decomine/internal/pattern"
)

// PartialEmbedding is an embedding of one subpattern of the mined
// pattern, passed to user-defined functions by ProcessPartialEmbeddings
// (paper §4). The system guarantees:
//
//   - Completeness: every partial embedding of every subpattern is
//     delivered (with the number of whole-pattern matchings expanding it).
//   - Coverage: the subpatterns jointly cover all pattern vertices, so
//     WholeVertex reaches every whole-pattern vertex across emissions.
type PartialEmbedding struct {
	// SubpatternIndex identifies which subpattern this embedding
	// matches (0-based; 0 with a single subpattern for direct plans).
	SubpatternIndex int
	// Subpattern is the matched subpattern graph.
	Subpattern *Pattern
	// Vertices maps subpattern vertex i to the input-graph vertex, in
	// the graph's own IDs (those Graph.Label and Graph.HasEdge take);
	// the slice is reused between calls and must be copied if retained.
	Vertices []uint32
	// WholeVertex maps subpattern vertex i to the corresponding
	// whole-pattern vertex.
	WholeVertex []int
}

// UDF is a user-defined function receiving each partial embedding and
// the number of whole-pattern matchings expandable from it (always > 0).
type UDF func(pe *PartialEmbedding, count int64)

// ProcessPartialEmbeddings runs the UDF over every partial embedding of
// p — the paper's process_partial_embedding API. newUDF is invoked once
// per worker thread, so the returned UDF needs no internal locking; use
// per-worker state and merge after this call returns.
func (s *System) ProcessPartialEmbeddings(p *Pattern, newUDF func(worker int) UDF) error {
	plan, info, err := s.emitPlan(p.p)
	if err != nil {
		return err
	}
	g := s.graph.g
	_, err = s.runEmitPlan(plan, func(worker int) engine.Consumer {
		udf := newUDF(worker)
		// One reusable PartialEmbedding per subpattern per worker.
		pes := make([]*PartialEmbedding, len(info))
		for i, si := range info {
			pes[i] = &PartialEmbedding{
				SubpatternIndex: i,
				Subpattern:      &Pattern{si.pat},
				Vertices:        make([]uint32, si.pat.NumVertices()),
				WholeVertex:     si.toWhole,
			}
		}
		return engine.ConsumerFunc(func(sub int, verts []uint32, count int64) bool {
			pe := pes[sub]
			for i := range pe.Vertices {
				pe.Vertices[i] = g.InputID(verts[i])
			}
			udf(pe, count)
			return true
		})
	}, time.Time{})
	return err
}

// runEmitPlan executes a compiled emission plan (see emitPlan) with one
// consumer per worker, which receives internal vertex IDs, optionally
// under a deadline (zero = none), reporting canceled=true when it
// expires.
func (s *System) runEmitPlan(plan *core.Plan, newConsumer func(worker int) engine.Consumer, deadline time.Time) (bool, error) {
	cancel := new(atomic.Bool)
	defer armDeadline(cancel, deadline)()
	res, _, err := s.exec(plan, true, engine.Options{Cancel: cancel, NewConsumer: newConsumer})
	if err != nil {
		return false, err
	}
	return res.Canceled, nil
}

// subInfo describes one subpattern of the emission plan.
type subInfo struct {
	pat     *pattern.Pattern
	toWhole []int
}

// emitPlan compiles (and caches, failures included) an emission-mode
// plan for p, preferring decomposition, and describes its subpatterns:
// a decomposed plan emits each of its decomposition's subpatterns, a
// direct plan the whole pattern as subpattern 0.
func (s *System) emitPlan(p *pattern.Pattern) (*core.Plan, []subInfo, error) {
	e, _, err := s.planFor(planReq{pat: p, mode: core.ModeEmit})
	if err != nil {
		return nil, nil, err
	}
	d := e.plan.Decomposition
	if d == nil {
		whole := make([]int, p.NumVertices())
		for i := range whole {
			whole[i] = i
		}
		return e.plan, []subInfo{{pat: p.Clone(), toWhole: whole}}, nil
	}
	info := make([]subInfo, len(d.Subpatterns))
	for i, sp := range d.Subpatterns {
		info[i] = subInfo{pat: sp.Pat, toWhole: sp.ToWhole}
	}
	return e.plan, info, nil
}

// Materialize expands a partial embedding into up to num whole-pattern
// embeddings (as vertex tuples indexed by whole-pattern vertex) — the
// paper's materialize API. It enumerates the remaining pattern vertices
// with the partial embedding pinned. Pins and tuples are in the graph's
// own vertex IDs.
func (s *System) Materialize(p *Pattern, pe *PartialEmbedding, num int) ([][]uint32, error) {
	if num <= 0 {
		return nil, nil
	}
	g := s.graph.g
	n := p.p.NumVertices()
	pinnedPattern := make([]int, 0, len(pe.WholeVertex))
	pins := make([]uint32, 0, len(pe.WholeVertex))
	seen := map[int]bool{}
	for i, w := range pe.WholeVertex {
		if seen[w] {
			continue
		}
		seen[w] = true
		v := pe.Vertices[i]
		if int(v) >= g.NumVertices() {
			return nil, fmt.Errorf("decomine: vertex %d out of range (|V| = %d)", v, g.NumVertices())
		}
		pinnedPattern = append(pinnedPattern, w)
		pins = append(pins, g.InternalID(v))
	}
	// Remaining vertices in a connected order relative to the pinned set.
	var rest []int
	for v := 0; v < n; v++ {
		if !seen[v] {
			rest = append(rest, v)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })

	plan, err := generatePinned(p.p, pinnedPattern, rest)
	if err != nil {
		return nil, err
	}
	var out [][]uint32
	// Bounded expansion is sequential by construction: one consumer
	// appends to out and stops the run at num.
	_, _, err = s.exec(plan, false, engine.Options{
		Threads: 1,
		Pins:    pins,
		NewConsumer: func(worker int) engine.Consumer {
			return engine.ConsumerFunc(func(sub int, verts []uint32, count int64) bool {
				tuple := make([]uint32, len(verts))
				for i, v := range verts {
					tuple[i] = g.InputID(v)
				}
				out = append(out, tuple)
				return len(out) < num
			})
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// generatePinned builds a whole-embedding enumeration plan with the
// given pattern vertices preloaded as pinned engine variables.
func generatePinned(p *pattern.Pattern, pinned, rest []int) (*core.Plan, error) {
	if len(pinned)+len(rest) != p.NumVertices() {
		return nil, fmt.Errorf("decomine: bad pin split %v + %v for %s", pinned, rest, p)
	}
	plan, err := core.GeneratePinned(p, pinned, rest)
	if err != nil {
		return nil, err
	}
	ast.Optimize(plan.Prog)
	return plan, nil
}
