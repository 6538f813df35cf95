package decomine

import (
	"fmt"

	"decomine/internal/pattern"
)

// MotifCount pairs a motif pattern with its vertex-induced embedding
// count and the per-class query stats of the class's own edge-induced
// subquery (zero-valued when that subquery was served from a cache
// rather than executed in this batch).
type MotifCount struct {
	Pattern *Pattern
	Count   int64
	Stats   QueryStats
}

// MotifCounts implements k-motif counting (k-MC): the vertex-induced
// count of every connected pattern with exactly k vertices. Following
// the paper (§2.2), the system counts edge-induced embeddings of all
// size-k pattern classes — where decomposition applies — and recovers
// the vertex-induced counts through the inclusion-exclusion conversion,
// rather than enumerating each vertex-induced motif directly. The
// census runs through the batch layer (CountPatterns): each distinct
// class executes exactly once, shared shrinkage quotients are counted
// standalone instead of per-plan, and the subqueries run concurrently
// on the System's pool. Each subquery is still a full query — visible
// at /debug/queries and eligible for the slow-query log.
func (s *System) MotifCounts(k int) ([]MotifCount, error) {
	if k < 1 || k > 7 {
		return nil, fmt.Errorf("decomine: motif counting supports k in 1..7, got %d", k)
	}
	pats := pattern.ConnectedPatterns(k)
	members := make([]*Pattern, len(pats))
	for i, p := range pats {
		members[i] = &Pattern{p}
	}
	br, err := s.CountPatterns(members, BatchOpts{Induced: true})
	if err != nil {
		return nil, err
	}
	out := make([]MotifCount, len(pats))
	for i, p := range pats {
		out[i] = MotifCount{
			Pattern: &Pattern{p.Clone()},
			Count:   br.Results[i].Count,
			Stats:   br.Results[i].Stats,
		}
	}
	return out, nil
}

// CycleCount counts edge-induced embeddings of the k-cycle (the paper's
// k-cycle mining workload, Table 7).
func (s *System) CycleCount(k int) (int64, error) {
	p, err := PatternByName(fmt.Sprintf("cycle-%d", k))
	if err != nil {
		return 0, err
	}
	return s.GetPatternCount(p)
}

// PseudoCliqueCount counts vertex-induced pseudo-cliques with n vertices
// and at most `missing` absent edges (paper §8.1; the experiments use
// missing = 1).
func (s *System) PseudoCliqueCount(n, missing int) (int64, error) {
	var total int64
	for _, p := range pattern.PseudoCliques(n, missing) {
		vi, err := s.GetPatternCountVertexInduced(&Pattern{p})
		if err != nil {
			return 0, err
		}
		total += vi
	}
	return total, nil
}
