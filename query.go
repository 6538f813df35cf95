package decomine

import (
	"errors"
	"sync/atomic"
	"time"

	"decomine/internal/core"
	"decomine/internal/engine"
)

// ErrCanceled is returned by a counting query whose QueryHandle was
// canceled, or whose QueryOpts/BatchOpts deadline passed, before the
// execution phase completed.
var ErrCanceled = errors.New("decomine: query canceled")

// ErrWorkerPanic is wrapped by the error a query returns when code it
// ran on a pool worker — a ProcessPartialEmbeddings UDF, typically —
// panicked. The error also wraps the panic value when that is an error.
// The System and its pool stay usable.
var ErrWorkerPanic = engine.ErrWorkerPanic

// ErrCountOverflow is wrapped by the error a counting query returns
// when extracting its count from the run's totals overflows an int64:
// scaling by the cut-symmetry orbit or subtracting an externalized
// shrinkage's copies. The run's own accumulation is not checked.
var ErrCountOverflow = core.ErrCountOverflow

// QueryHandle tracks one in-flight asynchronous counting query started
// by CountPatternAsync. All methods are safe for concurrent use.
type QueryHandle struct {
	started time.Time
	tracker *engine.ProgressTracker
	cancel  atomic.Bool
	done    chan struct{}

	// res/err are written once by the query goroutine before done is
	// closed, and read only after <-done.
	res *Result
	err error
}

// Progress returns the query's completion fraction in [0, 1]. It is
// monotone while the query runs and reaches exactly 1.0 on successful
// completion; a canceled query's fraction stays where cancellation
// caught it.
func (h *QueryHandle) Progress() float64 { return h.tracker.Fraction() }

// ETA extrapolates the remaining run time from elapsed time and the
// current progress fraction. It returns -1 while progress is still 0
// (unknown) and 0 once the query has finished.
func (h *QueryHandle) ETA() time.Duration {
	select {
	case <-h.done:
		return 0
	default:
	}
	p := h.Progress()
	if p <= 0 {
		return -1
	}
	elapsed := time.Since(h.started)
	return time.Duration(float64(elapsed) * (1 - p) / p)
}

// Done returns a channel closed when the query finishes (successfully,
// with an error, or by cancellation).
func (h *QueryHandle) Done() <-chan struct{} { return h.done }

// Cancel requests the query abort. The engine observes cancellation
// inside the VM dispatch loop (every few thousand instructions), so
// even one huge iteration stops promptly; Wait then returns
// ErrCanceled. Canceling a finished query is a no-op.
func (h *QueryHandle) Cancel() { h.cancel.Store(true) }

// Wait blocks until the query finishes and returns its result.
func (h *QueryHandle) Wait() (*Result, error) {
	<-h.done
	return h.res, h.err
}

// CountPatternAsync starts CountPattern(p, o) in a background goroutine
// and returns a handle exposing live progress, a crude ETA, and
// cancellation. The query also appears (with the same progress
// fraction) at /debug/queries while it runs.
func (s *System) CountPatternAsync(p *Pattern, o QueryOpts) *QueryHandle {
	h := &QueryHandle{
		started: time.Now(),
		tracker: &engine.ProgressTracker{},
		done:    make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		h.res, h.err = s.countPattern(o.req(p), o, queryRun{cancel: &h.cancel, tracker: h.tracker})
	}()
	return h
}
