package decomine

import (
	"errors"
	"sync/atomic"
	"time"

	"decomine/internal/pattern"
)

// ErrBudgetExceeded is returned by a counting query that ran out of its
// QueryOpts.MaxInstructions budget before the execution phase finished.
var ErrBudgetExceeded = errors.New("decomine: instruction budget exceeded")

// QueryOpts refines a counting query. The zero value means a plain
// unconstrained, unbudgeted edge-induced count. Only Constraints reaches
// the algorithm search and so the plan cache: a constrained plan is
// cached for the exact spelling of p it was asked with, because the
// constraints name p's vertices. The other fields shape one run.
type QueryOpts struct {
	// Constraints restricts the count to embeddings whose vertex labels
	// satisfy every group constraint (see CountWithConstraints).
	Constraints []LabelConstraint
	// Deadline, when non-zero, is the wall-clock time by which the query
	// must finish. Expiry stops execution through the same cancel flag
	// as QueryHandle.Cancel, so the query returns ErrCanceled; a
	// deadline already past when execution starts cancels it at once.
	// Compilation is not interrupted.
	Deadline time.Time
	// MaxInstructions, when > 0, caps the bytecode instructions the
	// execution phase may spend (summed across workers). A run
	// that exhausts the budget aborts through the engine's cancellation
	// window — overshooting by at most a few thousand instructions per
	// worker — and returns ErrBudgetExceeded. The multi-tenant server
	// prices admission with EstimateCost and enforces the grant here.
	MaxInstructions int64
	// Fuel, when non-nil, is a shared instruction budget this query
	// debits instead of (and overriding) MaxInstructions, so several
	// queries enforce one joint grant. Exhaustion returns
	// ErrBudgetExceeded.
	Fuel *atomic.Int64
	// Span, when non-nil, is the request trace span this query runs
	// under: the query records a "count:<pattern>" child span with
	// compile (enumerate/rank, with the aux-table verdict), lower, and
	// execute (fuel spent, kernel mix, steals) children, and
	// the query's /debug/queries entry and slow-log record carry the
	// span's tenant and trace ID. Nil costs one pointer check.
	Span *TraceSpan
}

// fuelCounter returns the shared budget counter for this query, or nil
// when the query is unbudgeted.
func (o *QueryOpts) fuelCounter() *atomic.Int64 {
	if o.Fuel != nil {
		return o.Fuel
	}
	if o.MaxInstructions > 0 {
		f := new(atomic.Int64)
		f.Store(o.MaxInstructions)
		return f
	}
	return nil
}

// req is the plan request of counting p under these options: its
// label constraints are the only field the algorithm search reads.
func (o *QueryOpts) req(p *Pattern) planReq {
	return planReq{pat: p.p, cons: consKey(o.Constraints)}
}

// armDeadline flips cancel once deadline passes — at once when it
// already has — and returns the function releasing the timer. The zero
// deadline arms nothing.
func armDeadline(cancel *atomic.Bool, deadline time.Time) (stop func()) {
	if deadline.IsZero() {
		return func() {}
	}
	d := time.Until(deadline)
	if d <= 0 {
		cancel.Store(true)
		return func() {}
	}
	t := time.AfterFunc(d, func() { cancel.Store(true) })
	return func() { t.Stop() }
}

// EstimateCost prices a query without executing it: it returns the cost
// model's estimate, in model units, for the plan the compiler selects
// for p under these options. The search outcome is
// cached in the plan cache, so estimating and then running a query
// compiles once. Admission control in the serving layer rejects or
// queues queries by this price.
func (s *System) EstimateCost(p *Pattern, o QueryOpts) (float64, error) {
	e, _, err := s.planFor(o.req(p))
	if err != nil {
		return 0, err
	}
	return e.cost, nil
}

// CanonicalCode returns the pattern's canonical isomorphism-class code:
// two patterns (including vertex labels) get equal codes iff they are
// isomorphic. The serving layer's result cache keys on it, so
// differently-numbered spellings of the same pattern share one entry.
func (p *Pattern) CanonicalCode() string { return string(p.p.Canonical()) }

// Raw exposes the wrapped internal pattern. It is a bridge for
// in-module layers (the query server's rewrite oracle) that need the
// pattern algebra in internal/pattern and internal/decomp; code outside
// this module cannot name the returned type.
func (p *Pattern) Raw() *pattern.Pattern { return p.p }

// RawPattern wraps an internal pattern (e.g. a decomposition
// subpattern) for the public counting APIs; the inverse of Raw.
func RawPattern(q *pattern.Pattern) *Pattern { return &Pattern{q} }
