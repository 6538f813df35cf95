package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// resetSpanState restores tracer globals a test may have touched.
func resetSpanState(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		ResetTraceTrees()
		SetTraceTreeCap(defaultTraceTreeCap)
		SetTraceSampling(1)
		SetSlowQueryThreshold(0)
	})
	ResetTraceTrees()
	SetTraceSampling(1)
	SetSlowQueryThreshold(0)
}

func TestParseTraceParent(t *testing.T) {
	tid, pid, ok := parseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if got := "4bf92f3577b34da6a3ce929d0e0e4736"; !strings.EqualFold(got, hexString(tid[:])) {
		t.Fatalf("trace id = %x", tid)
	}
	if got := "00f067aa0ba902b7"; !strings.EqualFold(got, hexString(pid[:])) {
		t.Fatalf("parent id = %x", pid)
	}
	for _, bad := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff invalid
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent id
		"00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex
		"004bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011",  // bad dashes
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",  // non-hex flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",  // non-hex flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",  // uppercase parent id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A",  // uppercase flags
		"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // uppercase version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-", // version 00 longer than 55
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-ab",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // later version, no '-' at 55
	} {
		if _, _, ok := parseTraceParent(bad); ok {
			t.Errorf("accepted malformed traceparent %q", bad)
		}
	}
	// A later version may append fields after a '-' at byte 55.
	for _, good := range []string{
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-the-future-holds",
	} {
		if _, _, ok := parseTraceParent(good); !ok {
			t.Errorf("rejected valid traceparent %q", good)
		}
	}
}

// FuzzTraceparent: parsing never panics, and an accepted header's trace
// and parent IDs survive a round trip through the span it seeds: the
// span keeps the trace ID, records the parent, and renders a
// traceparent that parses back to the same trace.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz")
	f.Fuzz(func(t *testing.T, h string) {
		tid, pid, ok := parseTraceParent(h)
		if !ok {
			return
		}
		s := StartSpanContext("fuzz", h)
		if s.TraceID() != h[3:35] || hexString(tid[:]) != h[3:35] {
			t.Fatalf("%q: trace id %s, span trace id %s", h, hexString(tid[:]), s.TraceID())
		}
		if hexString(pid[:]) != h[36:52] || s.tree.remoteParent != pid {
			t.Fatalf("%q: parent id %s, recorded %x", h, hexString(pid[:]), s.tree.remoteParent)
		}
		if tid2, _, ok := parseTraceParent(s.TraceParent()); !ok || tid2 != tid {
			t.Fatalf("%q: rendered %q does not parse back to the trace", h, s.TraceParent())
		}
	})
}

func hexString(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 2*len(b))
	for _, x := range b {
		out = append(out, digits[x>>4], digits[x&0xf])
	}
	return string(out)
}

func TestSpanContextAdoption(t *testing.T) {
	resetSpanState(t)
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	root := StartSpanContext("http.query", tp)
	if root.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not adopted: %s", root.TraceID())
	}
	if !strings.HasPrefix(root.TraceParent(), "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
		t.Fatalf("traceparent = %s", root.TraceParent())
	}
	root.End()

	// Malformed header starts a fresh trace instead of failing.
	fresh := StartSpanContext("http.query", "garbage")
	if fresh.TraceID() == "" || fresh.TraceID() == root.TraceID() {
		t.Fatalf("fresh trace id = %q", fresh.TraceID())
	}
	fresh.End()
}

func TestSpanTreeShapeAndRetrieval(t *testing.T) {
	resetSpanState(t)
	root := StartSpan("http.query")
	root.SetTenant("acme")
	root.SetQueueWait(3 * time.Millisecond)

	adm := root.StartChild("admission")
	adm.SetAttr("price", int64(7))
	adm.End()

	begin := time.Now().Add(-2 * time.Millisecond)
	root.LeafAt("compile:enumerate", begin, time.Millisecond, SpanAttr{"candidates", 5})

	exec := root.StartChild("execute")
	exec.SetAttr("fuel_spent", int64(123))
	exec.SetAttr("kernels", map[string]int64{"merge": 4, "bitmap": 2})
	exec.End()
	root.End()

	got := TraceByID(root.TraceID())
	if got != root {
		t.Fatal("finished root not retrievable by trace id")
	}
	if got.Tenant() != "acme" || got.QueueWait() != 3*time.Millisecond {
		t.Fatalf("tenant/queue wait = %q/%v", got.Tenant(), got.QueueWait())
	}
	var names []string
	got.Walk(func(s *Span) { names = append(names, s.Name()) })
	want := []string{"http.query", "admission", "compile:enumerate", "execute"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("walk order = %v, want %v", names, want)
	}
	if v, ok := got.Children()[2].Attr("fuel_spent"); !ok || v.(int64) != 123 {
		t.Fatalf("execute fuel attr = %v, %v", v, ok)
	}

	// JSON form: trace id on the root only, parent ids on children.
	blob, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var dec struct {
		TraceID  string `json:"trace_id"`
		SpanID   string `json:"span_id"`
		Children []struct {
			ParentID string         `json:"parent_span_id"`
			Attrs    map[string]any `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal(blob, &dec); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if dec.TraceID != root.TraceID() || len(dec.Children) != 3 {
		t.Fatalf("json tree = %s", blob)
	}
	if dec.Children[0].ParentID != dec.SpanID {
		t.Fatalf("child parent id = %q, want %q", dec.Children[0].ParentID, dec.SpanID)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	s.SetTenant("x")
	s.SetQueueWait(time.Second)
	s.SetAttr("k", 1)
	s.LeafAt("leaf", time.Now(), time.Second)
	s.End()
	s.EndErr(errors.New("boom"))
	c := s.StartChild("child")
	if c != nil {
		t.Fatal("child of nil span is non-nil")
	}
	if s.TraceID() != "" || s.TraceParent() != "" || s.Name() != "" {
		t.Fatal("nil span identity not empty")
	}
	if s.Tenant() != "" || s.QueueWait() != 0 || s.Duration() != 0 || s.Err() != "" {
		t.Fatal("nil span accessors not zero")
	}
	s.Walk(func(*Span) { t.Fatal("walk visited nil span") })
}

func TestTailRetention(t *testing.T) {
	resetSpanState(t)
	SetTraceSampling(0)

	// Unremarkable trace at sampling 0: dropped.
	plain := StartSpan("plain")
	plain.End()
	if TraceByID(plain.TraceID()) != nil {
		t.Fatal("sampled-out trace retained")
	}

	// Error anywhere in the tree: always kept.
	errRoot := StartSpan("err")
	child := errRoot.StartChild("execute")
	child.EndErr(errors.New("budget exceeded"))
	errRoot.End()
	if TraceByID(errRoot.TraceID()) == nil {
		t.Fatal("error trace not retained at sampling 0")
	}

	// Slow trace (threshold crossed): always kept.
	SetSlowQueryThreshold(time.Nanosecond)
	slow := StartSpan("slow")
	time.Sleep(time.Microsecond)
	slow.End()
	if TraceByID(slow.TraceID()) == nil {
		t.Fatal("slow trace not retained at sampling 0")
	}
	SetSlowQueryThreshold(0)

	// Sampling 1 keeps everything.
	SetTraceSampling(1)
	keep := StartSpan("keep")
	keep.End()
	if TraceByID(keep.TraceID()) == nil {
		t.Fatal("trace not retained at sampling 1")
	}
}

func TestTraceTreeCapEviction(t *testing.T) {
	resetSpanState(t)
	SetTraceTreeCap(3)
	var ids []string
	for i := 0; i < 5; i++ {
		s := StartSpan("q")
		s.End()
		ids = append(ids, s.TraceID())
	}
	if got := len(TraceTrees()); got != 3 {
		t.Fatalf("ring holds %d trees, want 3", got)
	}
	for _, old := range ids[:2] {
		if TraceByID(old) != nil {
			t.Fatalf("evicted trace %s still present", old)
		}
	}
	for _, cur := range ids[2:] {
		if TraceByID(cur) == nil {
			t.Fatalf("recent trace %s missing", cur)
		}
	}

	// Re-sent traceparent: latest tree wins without growing the ring.
	const tp = "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa-00f067aa0ba902b7-01"
	first := StartSpanContext("dup", tp)
	first.End()
	second := StartSpanContext("dup", tp)
	second.End()
	if TraceByID(second.TraceID()) != second {
		t.Fatal("duplicate trace id did not take latest tree")
	}
	if got := len(TraceTrees()); got != 3 {
		t.Fatalf("ring grew past cap on duplicate id: %d", got)
	}
}

func TestExportOTLP(t *testing.T) {
	resetSpanState(t)
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	root := StartSpanContext("http.query", tp)
	exec := root.StartChild("execute")
	exec.SetAttr("fuel_spent", int64(9))
	exec.SetAttr("kernels", map[string]int64{"merge": 4})
	exec.EndErr(errors.New("boom"))
	root.End()

	doc := ExportOTLP()
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("export shape: %+v", doc)
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(spans))
	}
	rootSpan, execSpan := spans[0], spans[1]
	if rootSpan.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("root trace id = %s", rootSpan.TraceID)
	}
	// Remote parent from the traceparent header links the tree upstream.
	if rootSpan.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("root parent span id = %s", rootSpan.ParentSpanID)
	}
	if execSpan.ParentSpanID != rootSpan.SpanID {
		t.Fatalf("exec parent = %s, want %s", execSpan.ParentSpanID, rootSpan.SpanID)
	}
	if execSpan.Status == nil || execSpan.Status.Code != 2 || execSpan.Status.Message != "boom" {
		t.Fatalf("exec status = %+v", execSpan.Status)
	}
	attrs := map[string]otlpValue{}
	for _, a := range execSpan.Attributes {
		attrs[a.Key] = a.Value
	}
	if v := attrs["fuel_spent"]; v.IntValue == nil || *v.IntValue != "9" {
		t.Fatalf("fuel attr = %+v", v)
	}
	// Kernel map flattens to dotted int keys.
	if v := attrs["kernels.merge"]; v.IntValue == nil || *v.IntValue != "4" {
		t.Fatalf("kernel attr = %+v", attrs)
	}
	// Proto3 JSON: nanos must serialize as strings.
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(blob), `"startTimeUnixNano":"`) {
		t.Fatalf("nanos not stringified: %s", blob)
	}
}

func TestTraceHTTPEndpoints(t *testing.T) {
	resetSpanState(t)
	root := StartSpan("http.query")
	root.StartChild("admission").End()
	root.End()
	h := Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/"+root.TraceID(), nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace/{id}: status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, root.TraceID()) || !strings.Contains(body, `"admission"`) {
		t.Fatalf("/debug/trace/{id} body = %s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/ffffffffffffffffffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown trace id: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/export", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"resourceSpans"`) {
		t.Fatalf("/debug/traces/export: status %d body %s", rec.Code, rec.Body.String())
	}
}
