package obs

// Live-query registry behind the /debug/queries endpoint: every
// in-flight query registers a name plus a progress callback (fed by the
// engine's root-range completion accounting), so operators can see what
// a busy System is doing, how far along each query is, and a crude ETA
// extrapolated from elapsed time and the progress fraction.

import (
	"sort"
	"sync"
	"time"
)

var obsQueriesInflight = Default.Gauge("queries.inflight")

// QueryMeta is the request-attribution metadata an in-flight query
// registers alongside its name: the owning tenant, the request's W3C
// trace ID, and how long the request waited for a fair-scheduler slot
// before executing. The zero value means "no attribution" (library
// callers outside the serving path).
type QueryMeta struct {
	Tenant    string
	TraceID   string
	QueueWait time.Duration
}

type queryRec struct {
	id       uint64
	name     string
	meta     QueryMeta
	begin    time.Time
	progress func() float64
	cancel   func()
}

var (
	queryMu     sync.Mutex
	queryNextID uint64
	queryLive   = map[uint64]*queryRec{}
)

// RegisterQueryMeta adds an in-flight query to the live registry.
// progress (may be nil) returns the completion fraction in [0, 1]; it is
// called from the HTTP handler goroutine and must be safe for concurrent
// use. cancel (may be nil) is invoked — at most once, from the HTTP
// handler goroutine — when an operator POSTs /debug/queries/cancel?id=N,
// and must be safe to call concurrently with the query finishing. meta
// attributes the query to its request: /debug/queries shows its tenant,
// trace ID and queue wait next to its progress, so a live query links
// back to its request trace and its tenant's budget. The returned
// function unregisters the query and must be called when it finishes.
func RegisterQueryMeta(name string, meta QueryMeta, progress func() float64, cancel func()) (id uint64, unregister func()) {
	queryMu.Lock()
	queryNextID++
	id = queryNextID
	queryLive[id] = &queryRec{id: id, name: name, meta: meta, begin: time.Now(), progress: progress, cancel: cancel}
	queryMu.Unlock()
	obsQueriesInflight.Add(1)
	return id, func() {
		queryMu.Lock()
		_, ok := queryLive[id]
		delete(queryLive, id)
		queryMu.Unlock()
		if ok {
			obsQueriesInflight.Add(-1)
		}
	}
}

// LiveQuery is one in-flight query as reported by /debug/queries.
type LiveQuery struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	// Tenant, TraceID and QueueWaitNS attribute served queries to their
	// tenant and request trace (empty/zero for library-level queries).
	Tenant      string    `json:"tenant,omitempty"`
	TraceID     string    `json:"trace_id,omitempty"`
	QueueWaitNS int64     `json:"queue_wait_ns,omitempty"`
	StartedAt   time.Time `json:"started_at"`
	RunningNS   int64     `json:"running_ns"`
	// Progress is the completion fraction in [0, 1] (0 when the query
	// has no progress source).
	Progress float64 `json:"progress"`
	// ETANS extrapolates remaining time from elapsed/progress; -1 when
	// progress is still 0 (unknown).
	ETANS int64 `json:"eta_ns"`
	// Cancelable reports that the query registered a cancel hook and can
	// be aborted via POST /debug/queries/cancel?id=N.
	Cancelable bool `json:"cancelable"`
}

// CancelQuery invokes the cancel hook of the in-flight query with the
// given id, returning false when the id is unknown, already finished,
// or was registered without a cancel hook.
func CancelQuery(id uint64) bool {
	queryMu.Lock()
	r, ok := queryLive[id]
	var cancel func()
	if ok {
		cancel = r.cancel
	}
	queryMu.Unlock()
	if cancel == nil {
		return false
	}
	cancel()
	return true
}

// LiveQueries returns the currently in-flight queries, oldest first.
func LiveQueries() []LiveQuery {
	queryMu.Lock()
	recs := make([]*queryRec, 0, len(queryLive))
	for _, r := range queryLive {
		recs = append(recs, r)
	}
	queryMu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	out := make([]LiveQuery, 0, len(recs))
	for _, r := range recs {
		q := LiveQuery{
			ID: r.id, Name: r.name,
			Tenant: r.meta.Tenant, TraceID: r.meta.TraceID, QueueWaitNS: r.meta.QueueWait.Nanoseconds(),
			StartedAt: r.begin, RunningNS: time.Since(r.begin).Nanoseconds(), ETANS: -1, Cancelable: r.cancel != nil,
		}
		if r.progress != nil {
			p := r.progress()
			if p < 0 {
				p = 0
			}
			if p > 1 {
				p = 1
			}
			q.Progress = p
			if p > 0 {
				q.ETANS = int64(float64(q.RunningNS) * (1 - p) / p)
			}
		}
		out = append(out, q)
	}
	return out
}
