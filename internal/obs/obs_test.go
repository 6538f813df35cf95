package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("second lookup returned a different handle")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 4, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	want := int64(0 + 1 + 1 + 3 + 4 + 100 + 1<<40)
	if h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	got := map[int64]int64{}
	for _, b := range h.Buckets() {
		got[b.Upper] = b.Count
	}
	// 0 -> bucket 0 (upper 1... bucket 0 reported with upper 1), 1,1 ->
	// [1,2), 3 -> [2,4), 4 -> [4,8), 100 -> [64,128), 2^40 -> [2^40,2^41).
	checks := map[int64]int64{2: 2, 4: 1, 8: 1, 128: 1, 1 << 41: 1}
	for upper, n := range checks {
		if got[upper] != n {
			t.Errorf("bucket upper=%d count=%d, want %d (all: %v)", upper, got[upper], n, got)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(2)
	r.Histogram("h").Observe(9)
	base := r.Snapshot()
	r.Counter("x").Add(5)
	r.Counter("fresh").Inc()
	if d := r.CounterDelta(base, "x"); d != 5 {
		t.Fatalf("delta x = %d, want 5", d)
	}
	if d := r.CounterDelta(base, "fresh"); d != 1 {
		t.Fatalf("delta fresh = %d, want 1", d)
	}
	if base.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot histogram count = %d, want 1", base.Histograms["h"].Count)
	}
	var sb strings.Builder
	r.Snapshot().WriteText(&sb)
	text := sb.String()
	// Histograms render as Prometheus-style cumulative series: 9 lands
	// in the [8,16) power-of-two bucket.
	for _, want := range []string{
		"# TYPE fresh counter", "fresh 1",
		"# TYPE x counter", "x 7",
		"# TYPE h histogram",
		`h_bucket{le="16"} 1`, `h_bucket{le="+Inf"} 1`,
		"h_sum 9", "h_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
}

func TestWriteTextHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("engine.worker.steals")
	for _, v := range []int64{1, 3, 3, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	r.Snapshot().WriteText(&sb)
	text := sb.String()
	// 1 -> [1,2), 3,3 -> [2,4), 100 -> [64,128); cumulative counts must
	// be monotone and the name sanitized for Prometheus.
	for _, want := range []string{
		"# TYPE engine_worker_steals histogram",
		`engine_worker_steals_bucket{le="2"} 1`,
		`engine_worker_steals_bucket{le="4"} 3`,
		`engine_worker_steals_bucket{le="128"} 4`,
		`engine_worker_steals_bucket{le="+Inf"} 4`,
		"engine_worker_steals_sum 107",
		"engine_worker_steals_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "le_") {
		t.Errorf("raw log2 bucket lines still present:\n%s", text)
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("server.tenant.fuel_spent", "Fuel units spent per tenant.")
	r.LabeledCounter("server.tenant.fuel_spent", Label{"tenant", "acme"}).Add(12)
	r.LabeledCounter("server.tenant.fuel_spent", Label{"tenant", "beta"}).Add(3)
	// Label order must not matter: both spellings hit the same series.
	c1 := r.LabeledCounter("m", Label{"b", "2"}, Label{"a", "1"})
	c2 := r.LabeledCounter("m", Label{"a", "1"}, Label{"b", "2"})
	if c1 != c2 {
		t.Fatal("label order produced distinct series handles")
	}
	c1.Inc()
	acme := []Label{{"tenant", "acme"}}
	r.Gauge(labeledName("depth", acme)).Set(4)
	r.Histogram(labeledName("wait", acme)).Observe(9)

	var sb strings.Builder
	r.Snapshot().WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"# HELP server_tenant_fuel_spent Fuel units spent per tenant.",
		"# TYPE server_tenant_fuel_spent counter",
		`server_tenant_fuel_spent{tenant="acme"} 12`,
		`server_tenant_fuel_spent{tenant="beta"} 3`,
		`m{a="1",b="2"} 1`,
		`depth{tenant="acme"} 4`,
		"# TYPE wait histogram",
		`wait_bucket{tenant="acme",le="16"} 1`,
		`wait_bucket{tenant="acme",le="+Inf"} 1`,
		`wait_sum{tenant="acme"} 9`,
		`wait_count{tenant="acme"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
	// The TYPE header must appear once per family, not once per series.
	if n := strings.Count(text, "# TYPE server_tenant_fuel_spent counter"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1:\n%s", n, text)
	}

	// /debug/vars JSON stability: labeled series stay flat map entries.
	snap := r.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
	var decoded struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("snapshot unmarshal: %v", err)
	}
	if decoded.Counters[`server.tenant.fuel_spent{tenant="acme"}`] != 12 {
		t.Errorf("flat JSON missing labeled counter key: %v", decoded.Counters)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	Default.Counter("test.handler").Inc()
	h := Handler()

	for path, want := range map[string]string{
		"/metrics":                    "# TYPE test_handler counter",
		"/debug/vars":                 "decomine.metrics",
		"/debug/profile":              `"flame"`,
		"/debug/profile?format=pprof": "",
		"/debug/queries":              "[",
		"/debug/slowqueries":          "[",
		"/debug/pprof/":               "goroutine",
		"/debug/pprof/cmdline":        "",
	} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Errorf("%s: status %d", path, rec.Code)
			continue
		}
		if want != "" && !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: body missing %q", path, want)
		}
	}

	// /debug/vars must be valid JSON with our snapshot inside.
	req := httptest.NewRequest("GET", "/debug/vars", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := decoded["decomine.metrics"]; !ok {
		t.Fatal("/debug/vars missing decomine.metrics")
	}

	// The flat per-query trace ring is gone; span trees replace it.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/debug/traces: status %d, want 404", rec.Code)
	}
}
