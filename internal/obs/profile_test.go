package obs

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
	"time"
)

func TestProfileMergeDiff(t *testing.T) {
	a := &Profile{
		TotalNS: 100, Samples: 10,
		Buckets: []ProfileBucket{
			{Op: "ILoopNext", Depth: 1, NS: 60, Samples: 6},
			{Op: "ISetDef", Depth: 1, Kernel: "merge", NS: 40, Samples: 4},
		},
		Ops:     map[string]int64{"ILoopNext": 600, "ISetDef": 40},
		Elided:  70,
		Kernels: map[string]int64{"merge": 40},
	}
	b := &Profile{
		TotalNS: 50, Samples: 5,
		Buckets: []ProfileBucket{
			{Op: "ILoopNext", Depth: 1, NS: 30, Samples: 3},
			{Op: "ISetDef", Depth: 2, Kernel: "bitmap", NS: 20, Samples: 2},
		},
		Ops:     map[string]int64{"ILoopNext": 300, "ISetDef": 20},
		Elided:  30,
		Kernels: map[string]int64{"bitmap": 20},
	}
	m := a.Clone()
	m.Merge(b)
	if m.TotalNS != 150 || m.Samples != 15 || m.Elided != 100 {
		t.Fatalf("merged totals = %d/%d/%d, want 150/15/100", m.TotalNS, m.Samples, m.Elided)
	}
	if len(m.Buckets) != 3 {
		t.Fatalf("merged buckets = %d, want 3", len(m.Buckets))
	}
	// Hottest-first ordering.
	if m.Buckets[0].Op != "ILoopNext" || m.Buckets[0].NS != 90 {
		t.Fatalf("hottest bucket = %+v", m.Buckets[0])
	}
	if m.Ops["ILoopNext"] != 900 || m.Kernels["merge"] != 40 || m.Kernels["bitmap"] != 20 {
		t.Fatalf("merged maps wrong: ops=%v kernels=%v", m.Ops, m.Kernels)
	}

	d := m.Diff(a)
	if d.TotalNS != b.TotalNS || d.Samples != b.Samples || d.Elided != b.Elided {
		t.Fatalf("diff totals = %d/%d/%d, want %d/%d/%d", d.TotalNS, d.Samples, d.Elided, b.TotalNS, b.Samples, b.Elided)
	}
	got := map[profKey]ProfileBucket{}
	for _, bk := range d.Buckets {
		got[profKey{bk.Op, bk.Depth, bk.Kernel}] = bk
	}
	if bk := got[profKey{"ILoopNext", 1, ""}]; bk.NS != 30 || bk.Samples != 3 {
		t.Fatalf("diff ILoopNext bucket = %+v", bk)
	}
	if bk := got[profKey{"ISetDef", 2, "bitmap"}]; bk.NS != 20 {
		t.Fatalf("diff bitmap bucket = %+v", bk)
	}
	// The ISetDef@1[merge] cell cancels to zero and must be dropped.
	if _, ok := got[profKey{"ISetDef", 1, "merge"}]; ok {
		t.Fatal("diff kept a zeroed bucket")
	}
	if d.Ops["ILoopNext"] != 300 || d.Ops["ISetDef"] != 20 {
		t.Fatalf("diff ops = %v", d.Ops)
	}
	if _, ok := d.Kernels["merge"]; ok {
		t.Fatalf("diff kept zeroed kernel entry: %v", d.Kernels)
	}
}

func TestProfileFlame(t *testing.T) {
	p := &Profile{
		Buckets: []ProfileBucket{
			{Op: "ILoopNext", Depth: 0, NS: 10, Samples: 1},
			{Op: "ILoopNext", Depth: 1, NS: 30, Samples: 3},
			{Op: "ISetDef", Depth: 1, Kernel: "gallop", NS: 20, Samples: 2},
		},
	}
	root := p.Flame()
	if root.Name != "vm" || root.Value != 60 {
		t.Fatalf("root = %q value %d, want vm/60", root.Name, root.Value)
	}
	d0 := root.child("depth 0")
	if d0.Value != 60 {
		t.Fatalf("depth 0 subtree = %d, want 60", d0.Value)
	}
	d1 := d0.child("depth 1")
	if d1.Value != 50 {
		t.Fatalf("depth 1 subtree = %d, want 50", d1.Value)
	}
	if leaf := d1.child("ISetDef [gallop]"); leaf.Value != 20 {
		t.Fatalf("kernel leaf = %d, want 20", leaf.Value)
	}
}

func TestProfileWritePprof(t *testing.T) {
	p := &Profile{
		TotalNS: 40, Samples: 4,
		Buckets: []ProfileBucket{
			{Op: "ILoopNext", Depth: 1, NS: 30, Samples: 3},
			{Op: "ISetDef", Depth: 1, Kernel: "merge", NS: 10, Samples: 1},
		},
	}
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatalf("WritePprof: %v", err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty pprof payload")
	}
	// The string table is embedded verbatim; spot-check the required
	// entries without a protobuf decoder.
	for _, want := range []string{"samples", "count", "time", "nanoseconds", "ILoopNext", "ISetDef [merge]", "depth 0", "depth 1"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("pprof payload missing string %q", want)
		}
	}
}

func TestGlobalProfileAccumulator(t *testing.T) {
	ResetGlobalProfile()
	defer ResetGlobalProfile()
	AccumulateProfile(&Profile{TotalNS: 5, Samples: 1, Buckets: []ProfileBucket{{Op: "IEmit", NS: 5, Samples: 1}}})
	AccumulateProfile(&Profile{TotalNS: 7, Samples: 2, Buckets: []ProfileBucket{{Op: "IEmit", NS: 7, Samples: 2}}})
	g := GlobalProfile()
	if g.TotalNS != 12 || g.Samples != 3 {
		t.Fatalf("global = %d/%d, want 12/3", g.TotalNS, g.Samples)
	}
	// GlobalProfile must return a copy, not the accumulator itself.
	g.Buckets[0].NS = 0
	if GlobalProfile().Buckets[0].NS != 12 {
		t.Fatal("GlobalProfile leaked internal state")
	}
}

func TestRegisterQueryAndLiveQueries(t *testing.T) {
	before := len(LiveQueries())
	id1, un1 := RegisterQueryMeta("q1", QueryMeta{}, func() float64 { return 0.5 }, nil)
	_, un2 := RegisterQueryMeta("q2", QueryMeta{}, nil, nil)
	defer un2()
	live := LiveQueries()
	if len(live) != before+2 {
		t.Fatalf("live = %d, want %d", len(live), before+2)
	}
	var q1 *LiveQuery
	for i := range live {
		if live[i].ID == id1 {
			q1 = &live[i]
		}
	}
	if q1 == nil {
		t.Fatal("q1 not in live set")
	}
	if q1.Progress != 0.5 {
		t.Fatalf("q1 progress = %v, want 0.5", q1.Progress)
	}
	if q1.ETANS < 0 {
		t.Fatalf("q1 eta = %d, want >= 0 at progress 0.5", q1.ETANS)
	}
	un1()
	un1() // idempotent
	if got := len(LiveQueries()); got != before+1 {
		t.Fatalf("live after unregister = %d, want %d", got, before+1)
	}
	gauge := Default.Gauge("queries.inflight").Load()
	if gauge < 1 {
		t.Fatalf("inflight gauge = %d, want >= 1 with q2 live", gauge)
	}
}

func TestSlowQueryLog(t *testing.T) {
	ResetSlowQueries()
	defer ResetSlowQueries()
	SetSlowQueryThreshold(time.Millisecond)
	defer SetSlowQueryThreshold(0)
	if SlowQueryThreshold() != time.Millisecond {
		t.Fatalf("threshold = %v", SlowQueryThreshold())
	}
	for i := 0; i < slowLogCap+3; i++ {
		RecordSlowQuery(&SlowQuery{QueryID: uint64(i + 1), Name: "q", DurationNS: int64(i)})
	}
	got := SlowQueries()
	if len(got) != slowLogCap {
		t.Fatalf("slow log holds %d, want %d", len(got), slowLogCap)
	}
	if got[0].QueryID != 4 || got[len(got)-1].QueryID != slowLogCap+3 {
		t.Fatalf("ring not oldest-first: first=%d last=%d", got[0].QueryID, got[len(got)-1].QueryID)
	}
}
