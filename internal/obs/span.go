package obs

// Request-scoped hierarchical span traces. A Span tree covers a whole
// *served request* — HTTP handling, admission pricing, queue wait, cache
// and rewrite lookups, per-subquery compilation (the Phase* leaves),
// batch dependency waves, and engine execution — as one parent/child
// tree under a single W3C trace ID, so an operator can answer "where did
// tenant X's 800ms go" from one object.
//
// Design rules:
//
//   - Every method is nil-receiver safe, so call sites thread a span
//     unconditionally and the untraced path costs one nil check.
//   - Mutation (children, attributes) locks per span; subqueries of one
//     batch wave append children concurrently.
//   - Trace context follows W3C trace-context: StartSpanContext accepts
//     a `traceparent` header value and adopts its trace ID (recording
//     the remote span as the root's parent); otherwise IDs are
//     generated.
//   - Retention is tail-based: when a root span ends, its tree is kept
//     if any span recorded an error (budget-exceeded and canceled
//     queries surface here), if the request was slow (the slow-query
//     threshold), or with probability SetTraceSampling — a bounded ring
//     either way.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Query lifecycle phases (paper §7: the compiler enumerates candidate
// implementations, ranks them with a cost model, lowers the winner to
// bytecode, and the engine executes it).
const (
	PhaseEnumerate = "enumerate"
	PhaseRank      = "rank"
	PhaseLower     = "lower"
	PhaseExecute   = "execute"
)

// SpanAttr is one typed span attribute. Values should be strings, Go
// integers, floats, bools, or (for kernel mixes) map[string]int64;
// anything else is stringified on export.
type SpanAttr struct {
	Key   string
	Value any
}

// traceShared is the per-tree state every span of one trace shares.
type traceShared struct {
	traceID [16]byte
	// remoteParent is the span ID carried by an accepted traceparent
	// header (zero when the trace originated here); it becomes the root
	// span's parentSpanId on export so the tree links into the caller's
	// trace in Jaeger/Grafana.
	remoteParent [8]byte

	mu          sync.Mutex
	tenant      string
	queueWaitNS int64
	hasErr      bool
}

// Span is one node of a request trace tree. Create roots with StartSpan
// or StartSpanContext, children with StartChild/StartChildAt/LeafAt,
// and call End (or EndErr) exactly once per span; ending the root
// publishes the tree to the retention ring. All methods are safe for
// concurrent use and safe on a nil receiver.
type Span struct {
	tree   *traceShared
	parent *Span
	spanID [8]byte
	name   string
	start  time.Time

	mu       sync.Mutex
	dur      time.Duration // 0 until End
	ended    bool
	err      string
	attrs    []SpanAttr
	children []*Span
}

func randID8() (b [8]byte) {
	u := rand.Uint64()
	for u == 0 {
		u = rand.Uint64()
	}
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	return b
}

// StartSpan starts a new root span with a fresh trace ID.
func StartSpan(name string) *Span {
	t := &traceShared{}
	hi, lo := rand.Uint64(), rand.Uint64()
	for hi == 0 && lo == 0 {
		hi, lo = rand.Uint64(), rand.Uint64()
	}
	for i := 0; i < 8; i++ {
		t.traceID[i] = byte(hi >> (8 * i))
		t.traceID[8+i] = byte(lo >> (8 * i))
	}
	return &Span{tree: t, spanID: randID8(), name: name, start: time.Now()}
}

// StartSpanContext starts a root span, adopting the trace ID of a valid
// W3C `traceparent` header value ("00-<32 hex>-<16 hex>-<2 hex>") and
// recording the remote span as the root's parent; an empty or malformed
// header starts a fresh trace (like StartSpan).
func StartSpanContext(name, traceparent string) *Span {
	s := StartSpan(name)
	if tid, pid, ok := parseTraceParent(traceparent); ok {
		s.tree.traceID = tid
		s.tree.remoteParent = pid
	}
	return s
}

// parseTraceParent validates a W3C Trace Context traceparent header
// value and extracts the trace and parent span IDs. Every field is
// lowercase hex. Version 00 is exactly 55 bytes; a later version may
// append fields after a '-' at byte 55, which are ignored. Version ff,
// an all-zero trace ID and an all-zero parent ID are invalid.
func parseTraceParent(h string) (tid [16]byte, pid [8]byte, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' ||
		!lowerHex(h[0:2]) || !lowerHex(h[3:35]) || !lowerHex(h[36:52]) || !lowerHex(h[53:55]) {
		return tid, pid, false
	}
	switch {
	case h[0:2] == "ff", h[0:2] == "00" && len(h) != 55, len(h) > 55 && h[55] != '-':
		return tid, pid, false
	}
	hex.Decode(tid[:], []byte(h[3:35]))
	hex.Decode(pid[:], []byte(h[36:52]))
	if tid == ([16]byte{}) || pid == ([8]byte{}) {
		return tid, pid, false
	}
	return tid, pid, true
}

// lowerHex reports whether s is all lowercase hex digits.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceID returns the span's 32-hex-digit trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return hex.EncodeToString(s.tree.traceID[:])
}

// SpanID returns the span's 16-hex-digit span ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return hex.EncodeToString(s.spanID[:])
}

// TraceParent renders the span as an outgoing W3C traceparent header
// value, for propagation to downstream services and response echoing.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("00-%s-%s-01", s.TraceID(), s.SpanID())
}

// SetTenant stamps the owning tenant on the whole trace (any span).
func (s *Span) SetTenant(tenant string) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	s.tree.tenant = tenant
	s.tree.mu.Unlock()
}

// Tenant returns the trace's tenant ("" when unset or nil).
func (s *Span) Tenant() string {
	if s == nil {
		return ""
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	return s.tree.tenant
}

// SetQueueWait stamps the request's fair-scheduler queue wait on the
// trace, so downstream registration (live queries) can attribute it.
func (s *Span) SetQueueWait(d time.Duration) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	s.tree.queueWaitNS = d.Nanoseconds()
	s.tree.mu.Unlock()
}

// QueueWait returns the trace's recorded queue wait (0 when unset).
func (s *Span) QueueWait() time.Duration {
	if s == nil {
		return 0
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	return time.Duration(s.tree.queueWaitNS)
}

// StartChild starts a child span beginning now.
func (s *Span) StartChild(name string) *Span {
	return s.StartChildAt(name, time.Now())
}

// StartChildAt starts a child span with an explicit begin time, for
// wrapping work that started before the span could be created (e.g. a
// compile phase whose duration is measured inside the search).
func (s *Span) StartChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tree: s.tree, parent: s, spanID: randID8(), name: name, start: start}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// LeafAt records an already-finished child span from its measured start
// and duration — the bridge for phase timings (enumerate, rank, lower,
// execute) that are measured by the code they wrap.
func (s *Span) LeafAt(name string, start time.Time, d time.Duration, attrs ...SpanAttr) {
	c := s.StartChildAt(name, start)
	if c == nil {
		return
	}
	for _, a := range attrs {
		c.SetAttr(a.Key, a.Value)
	}
	c.mu.Lock()
	c.dur = d
	c.ended = true
	c.mu.Unlock()
}

// SetAttr sets (or overwrites) one attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: value})
}

// End finishes the span. Ending a root span publishes its tree to the
// tail-retention ring; ending twice is a no-op.
func (s *Span) End() { s.EndErr(nil) }

// EndErr finishes the span with an error status. Any error anywhere in
// a tree (budget exhaustion, cancellation, execution failure) makes the
// whole tree always-retained.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if err != nil {
		s.err = err.Error()
	}
	dur := s.dur
	s.mu.Unlock()
	if err != nil {
		s.tree.mu.Lock()
		s.tree.hasErr = true
		s.tree.mu.Unlock()
	}
	if s.parent == nil {
		retainTree(s, dur)
	}
}

// --- Tail-based retention -------------------------------------------------

// traceSampling is the keep probability for unremarkable finished
// traces, stored as float64 bits (default 1.0: keep everything, so
// small deployments and tests see every trace; production servers dial
// it down with SetTraceSampling / decomined -trace-sample).
var traceSampling = func() (v atomic.Uint64) { v.Store(math.Float64bits(1)); return }()

// SetTraceSampling sets the probability (clamped to [0, 1]) that a
// finished trace with no error and sub-threshold latency is retained.
// Error, slow and budget-exceeded traces are always retained (tail-based
// sampling): the decision is made when the root span ends, never up
// front, so the interesting traces cannot be sampled away.
func SetTraceSampling(p float64) {
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	traceSampling.Store(math.Float64bits(p))
}

// TraceSampling returns the current keep probability.
func TraceSampling() float64 { return math.Float64frombits(traceSampling.Load()) }

const defaultTraceTreeCap = 256

var (
	treeMu    sync.Mutex
	treeCap   = defaultTraceTreeCap
	treeByID  = map[string]*Span{}
	treeOrder []string
)

// SetTraceTreeCap bounds how many finished request traces the retention
// ring holds (default 256, minimum 1). Shrinking evicts oldest-first.
func SetTraceTreeCap(n int) {
	if n < 1 {
		n = 1
	}
	treeMu.Lock()
	defer treeMu.Unlock()
	treeCap = n
	for len(treeOrder) > treeCap {
		delete(treeByID, treeOrder[0])
		treeOrder = treeOrder[1:]
	}
}

// retainTree applies the tail-based retention decision to a finished
// root span: always keep error and slow traces, sample the rest.
func retainTree(root *Span, dur time.Duration) {
	root.tree.mu.Lock()
	hasErr := root.tree.hasErr
	root.tree.mu.Unlock()
	if !hasErr {
		slow := SlowQueryThreshold()
		if slow <= 0 || dur < slow {
			p := TraceSampling()
			if p <= 0 || (p < 1 && rand.Float64() >= p) {
				return
			}
		}
	}
	id := root.TraceID()
	treeMu.Lock()
	defer treeMu.Unlock()
	if _, ok := treeByID[id]; ok {
		// A client re-sent the same traceparent: latest tree wins, ring
		// position unchanged.
		treeByID[id] = root
		return
	}
	for len(treeOrder) >= treeCap {
		delete(treeByID, treeOrder[0])
		treeOrder = treeOrder[1:]
	}
	treeByID[id] = root
	treeOrder = append(treeOrder, id)
}

// TraceByID returns the retained trace tree with the given 32-hex-digit
// trace ID, or nil.
func TraceByID(id string) *Span {
	treeMu.Lock()
	defer treeMu.Unlock()
	return treeByID[id]
}

// TraceTrees returns the retained trace trees, oldest first.
func TraceTrees() []*Span {
	treeMu.Lock()
	defer treeMu.Unlock()
	out := make([]*Span, 0, len(treeOrder))
	for _, id := range treeOrder {
		out = append(out, treeByID[id])
	}
	return out
}

// ResetTraceTrees clears the retention ring (tests).
func ResetTraceTrees() {
	treeMu.Lock()
	defer treeMu.Unlock()
	treeByID = map[string]*Span{}
	treeOrder = nil
}

// --- JSON rendering -------------------------------------------------------

// spanJSON is the /debug/trace/{id} wire form of one span.
type spanJSON struct {
	Name       string         `json:"name"`
	TraceID    string         `json:"trace_id,omitempty"` // root only
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_span_id,omitempty"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Err        string         `json:"err,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*Span        `json:"children,omitempty"`
}

// MarshalJSON renders the span (and, recursively, its children) for the
// /debug/trace/{id} endpoint.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	s.mu.Lock()
	out := spanJSON{
		Name:       s.name,
		SpanID:     s.SpanID(),
		Start:      s.start,
		DurationNS: s.dur.Nanoseconds(),
		Err:        s.err,
		Children:   append([]*Span(nil), s.children...),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	s.mu.Unlock()
	if s.parent == nil {
		out.TraceID = s.TraceID()
		if s.tree.remoteParent != ([8]byte{}) {
			out.ParentID = hex.EncodeToString(s.tree.remoteParent[:])
		}
	} else {
		out.ParentID = s.parent.SpanID()
	}
	return json.Marshal(out)
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's duration (0 until ended or on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Err returns the span's recorded error message ("" when none).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Children returns a copy of the span's current child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attr returns the span's attribute value for key (nil, false when
// absent).
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Walk visits the span and every descendant in depth-first order.
func (s *Span) Walk(visit func(*Span)) {
	if s == nil {
		return
	}
	visit(s)
	for _, c := range s.Children() {
		c.Walk(visit)
	}
}
