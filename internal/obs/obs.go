// Package obs is DecoMine's observability spine: a metrics registry
// with lock-free update paths (counters, gauges, and histograms with
// fixed log-spaced buckets), per-query phase traces, and an HTTP
// handler exposing everything via expvar, net/http/pprof and a plain
// /metrics dump.
//
// Design: registration (name -> handle lookup) takes a mutex, but it
// happens once per metric — callers hoist handles into package-level
// vars — while every update on the hot path is a single atomic add.
// The compiler, cost models, plan cache, scheduler and VM all feed the
// Default registry; tests and benchmarks read workload deltas from the
// same counters the production endpoint serves.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready
// to use; all methods are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d may be any sign, but counters are conventionally
// monotone; use a Gauge for values that go down).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable int64 (pool sizes, in-flight queries).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// numBuckets covers the full non-negative int64 range in power-of-two
// buckets: bucket i holds observations v with bits.Len64(v) == i, i.e.
// bucket 0 is v <= 0, bucket i is [2^(i-1), 2^i).
const numBuckets = 65

// Histogram counts observations into fixed log-spaced (power-of-two)
// buckets. Observe is a single atomic add per bucket plus count/sum
// bookkeeping; there is no locking anywhere.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. Negative values land in bucket 0.
func (h *Histogram) Observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistBucket is one non-empty histogram bucket in a snapshot: Count
// observations with value < Upper (and >= Upper/2, except the first).
type HistBucket struct {
	Upper int64 `json:"upper"`
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending bound order.
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i := 0; i < numBuckets; i++ {
		if c := h.buckets[i].Load(); c != 0 {
			upper := int64(1)
			if i > 0 && i < 64 {
				upper = int64(1) << i
			} else if i >= 64 {
				upper = 1<<63 - 1
			}
			out = append(out, HistBucket{Upper: upper, Count: c})
		}
	}
	return out
}

// Registry holds named metrics. Handle lookup takes a short mutex;
// metric updates through the returned handles are lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// Default is the process-wide registry every DecoMine subsystem feeds.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Label is one metric label pair for the labeled-family constructors.
// Per-tenant serving metrics (server.tenant.*) are the main user: one
// family name, one time series per tenant value, rendered with proper
// Prometheus labels by WriteText.
type Label struct {
	Key   string
	Value string
}

// labeledName encodes a family name plus label pairs into the flat
// registry key: `name{k1="v1",k2="v2"}` with keys sorted, which is
// already the Prometheus series syntax, so /debug/vars JSON keeps its
// flat map[string]value shape and WriteText only splits at the brace.
func labeledName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", promName(l.Key), l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// LabeledCounter returns the counter of the family name with the given
// label pairs, creating it on first use. Updates stay lock-free;
// callers on hot paths should hoist the handle per label set.
func (r *Registry) LabeledCounter(name string, labels ...Label) *Counter {
	return r.Counter(labeledName(name, labels))
}

// SetHelp registers the `# HELP` text WriteText renders for a metric
// family (the unlabeled family name). Families without registered help
// get a generated line.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// HistSnapshot is a histogram in a Snapshot.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry,
// suitable for JSON encoding (expvar) or diffing (CounterDelta). Keys of
// labeled metrics carry their label set inline (`name{k="v"}`), so the
// JSON shape stays a flat map either way.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	// help carries the registered # HELP texts for WriteText; it is not
	// part of the JSON shape.
	help map[string]string
}

// Snapshot copies the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.histograms)),
		help:       make(map[string]string, len(r.help)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = HistSnapshot{Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets()}
	}
	for name, help := range r.help {
		s.help[name] = help
	}
	return s
}

// CounterDelta returns snapshot-relative counter growth: the current
// value of counter name minus its value in base (0 when absent then).
func (r *Registry) CounterDelta(base Snapshot, name string) int64 {
	return r.Counter(name).Load() - base.Counters[name]
}

// promName maps a registry name to a Prometheus-compatible metric name
// (dots and dashes become underscores).
func promName(n string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(n)
}

// splitSeries splits a registry key into its family name and the
// inline label block (`{k="v",...}`, "" when unlabeled).
func splitSeries(key string) (family, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// withLabels merges a series' label block with extra `k="v"` pairs
// (the histogram `le` bound).
func withLabels(labels, extra string) string {
	if extra == "" {
		return labels
	}
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// families groups a flat series map by family name, each family's
// series sorted by label block.
func families(m map[string]int64) (names []string, series map[string][]string) {
	series = map[string][]string{}
	for key := range m {
		fam, _ := splitSeries(key)
		series[fam] = append(series[fam], key)
	}
	names = make([]string, 0, len(series))
	for fam := range series {
		names = append(names, fam)
		sort.Strings(series[fam])
	}
	sort.Strings(names)
	return names, series
}

// helpLine emits the `# HELP` and `# TYPE` header for one family,
// falling back to a generated help text when none was registered.
func (s Snapshot) helpLine(sb *strings.Builder, fam, promFam, typ string) {
	help := s.help[fam]
	if help == "" {
		help = "DecoMine " + typ + " " + fam + "."
	}
	fmt.Fprintf(sb, "# HELP %s %s\n", promFam, help)
	fmt.Fprintf(sb, "# TYPE %s %s\n", promFam, typ)
}

// WriteText renders the registry in the Prometheus text exposition
// format (the /metrics endpoint): every family gets `# HELP` and
// `# TYPE` headers, labeled series render with their label blocks, and
// histograms emit cumulative `<name>_bucket{le="..."}` series over the
// occupied power-of-two bounds plus the `le="+Inf"` total and the
// `_sum`/`_count` companions, so a Prometheus scrape ingests them as
// native histograms. Names are sanitized (dots and dashes become
// underscores); /debug/vars keeps the raw names.
func (s Snapshot) WriteText(sb *strings.Builder) {
	for _, group := range []struct {
		typ string
		m   map[string]int64
	}{{"counter", s.Counters}, {"gauge", s.Gauges}} {
		fams, series := families(group.m)
		for _, fam := range fams {
			pn := promName(fam)
			s.helpLine(sb, fam, pn, group.typ)
			for _, key := range series[fam] {
				_, labels := splitSeries(key)
				fmt.Fprintf(sb, "%s%s %d\n", pn, labels, group.m[key])
			}
		}
	}
	hfams := map[string][]string{}
	for key := range s.Histograms {
		fam, _ := splitSeries(key)
		hfams[fam] = append(hfams[fam], key)
	}
	hnames := make([]string, 0, len(hfams))
	for fam := range hfams {
		hnames = append(hnames, fam)
		sort.Strings(hfams[fam])
	}
	sort.Strings(hnames)
	for _, fam := range hnames {
		pn := promName(fam)
		s.helpLine(sb, fam, pn, "histogram")
		for _, key := range hfams[fam] {
			h := s.Histograms[key]
			_, labels := splitSeries(key)
			var cum int64
			for _, b := range h.Buckets {
				cum += b.Count
				fmt.Fprintf(sb, "%s_bucket%s %d\n", pn, withLabels(labels, fmt.Sprintf("le=%q", fmt.Sprint(b.Upper))), cum)
			}
			fmt.Fprintf(sb, "%s_bucket%s %d\n", pn, withLabels(labels, `le="+Inf"`), h.Count)
			fmt.Fprintf(sb, "%s_sum%s %d\n", pn, labels, h.Sum)
			fmt.Fprintf(sb, "%s_count%s %d\n", pn, labels, h.Count)
		}
	}
}
