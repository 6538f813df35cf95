package obs

// Slow-query log: queries whose wall time exceeds a configurable
// threshold are recorded with everything needed for a post-mortem —
// the selected plan (Explain pseudocode + bytecode disassembly), the
// run's sampling profile, and its kernel-path mix — in a bounded ring
// served by /debug/slowqueries.

import (
	"sync"
	"sync/atomic"
	"time"
)

var obsSlowQueries = Default.Counter("queries.slow")

// slowThresholdNS is the latency threshold in nanoseconds; 0 disables
// the slow-query log (the default).
var slowThresholdNS atomic.Int64

// SetSlowQueryThreshold sets the latency above which finished queries
// are recorded in the slow-query log. d <= 0 disables the log.
func SetSlowQueryThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	slowThresholdNS.Store(int64(d))
}

// SlowQueryThreshold returns the current threshold (0 = disabled).
func SlowQueryThreshold() time.Duration {
	return time.Duration(slowThresholdNS.Load())
}

// SlowQuery is one slow-query record.
type SlowQuery struct {
	// QueryID is the id the query held in the live-query registry
	// (/debug/queries) while it ran.
	QueryID uint64 `json:"query_id"`
	// RequestTraceID is the W3C trace ID of the served request this
	// query ran under (empty for library-level queries): the operator's
	// link from a slow-log entry to its full span tree at
	// /debug/trace/{id}.
	RequestTraceID string    `json:"request_trace_id,omitempty"`
	Name           string    `json:"name"`
	Begin          time.Time `json:"begin"`
	DurationNS     int64     `json:"duration_ns"`
	// Plan carries the compiler's choice description plus the optimized
	// pseudocode (the Explain AST), Disassembly the lowered bytecode.
	Plan        string `json:"plan,omitempty"`
	Disassembly string `json:"disassembly,omitempty"`
	// Kernels is the run's kernel-path dispatch mix.
	Kernels map[string]int64 `json:"kernels,omitempty"`
	// Profile is the run's sampling profile (nil when profiling was off).
	Profile *Profile `json:"profile,omitempty"`
}

const slowLogCap = 32

var (
	slowMu   sync.Mutex
	slowRing []*SlowQuery
	slowNext int
)

// RecordSlowQuery appends q to the bounded slow-query ring.
func RecordSlowQuery(q *SlowQuery) {
	if q == nil {
		return
	}
	obsSlowQueries.Inc()
	slowMu.Lock()
	defer slowMu.Unlock()
	if len(slowRing) < slowLogCap {
		slowRing = append(slowRing, q)
		return
	}
	slowRing[slowNext] = q
	slowNext = (slowNext + 1) % slowLogCap
}

// SlowQueries returns the recorded slow queries, oldest first.
func SlowQueries() []*SlowQuery {
	slowMu.Lock()
	defer slowMu.Unlock()
	out := make([]*SlowQuery, 0, len(slowRing))
	out = append(out, slowRing[slowNext:]...)
	out = append(out, slowRing[:slowNext]...)
	return out
}

// ResetSlowQueries clears the ring (tests, benchmark brackets).
func ResetSlowQueries() {
	slowMu.Lock()
	defer slowMu.Unlock()
	slowRing = nil
	slowNext = 0
}
