package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// quantile returns the q-quantile (nearest rank) of samples; samples
// need not be sorted and are not modified.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median averages the two middle samples of an even-sized set, so a
// run that happens to fit one more job does not jump between them.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads VmHWM, the peak resident set of process pid, from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// inputHash fingerprints the derived inputs of a run, so two runs with
// one seed can be shown to have carried the same load.
type inputHash struct{ h uint64 }

func (ih *inputHash) add(parts ...any) {
	h := fnv.New64a()
	fmt.Fprint(h, ih.h)
	for _, p := range parts {
		fmt.Fprint(h, "|", p)
	}
	ih.h = h.Sum64()
}

func (ih *inputHash) String() string { return fmt.Sprintf("%016x", ih.h) }

// answer is what one job returned, keyed by canonical pattern code (or
// "total" for single-number applications).
type answer map[string]int64

func (a answer) total() int64 {
	var t int64
	for _, v := range a {
		t += v
	}
	return t
}

// diff describes the first few disagreements between a and want.
func (a answer) diff(want answer) string {
	var out []string
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		g, gok := a[k]
		w, wok := want[k]
		if g != w || gok != wok {
			out = append(out, fmt.Sprintf("%s: got %d want %d", k, g, w))
		}
	}
	if len(out) > 4 {
		out = append(out[:4], fmt.Sprintf("… %d more", len(out)-4))
	}
	return strings.Join(out, "; ")
}

// span is one timed interval recorded by the harness around a call into
// a layer; Parent indexes the enclosing span (-1 at the root).
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer keeps the spans of one traced run in memory; they are written
// out only when the run ends. It serves one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// in records fn as a child of the innermost open span.
func (t *tracer) in(name string, fn func()) time.Duration {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	start := time.Now()
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: start.Sub(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	fn()
	d := time.Since(start)
	t.open = t.open[:len(t.open)-1]
	t.spans[id].DurNS = d.Nanoseconds()
	return d
}

// leaf records an interval the layer timed itself (core.Search reports
// its enumerate/rank split that way) as a child of the open span.
func (t *tracer) leaf(name string, d time.Duration) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds(), DurNS: d.Nanoseconds()})
}

// selfMS sums, per span name, each span's duration minus the part its
// children cover, in ms.
func (t *tracer) selfMS() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.DurNS
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.DurNS-child[i]) / 1e6
	}
	return out
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.DurNS
		}
	}
	return time.Duration(d)
}

func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
