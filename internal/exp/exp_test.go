package exp

import (
	"strings"
	"testing"
	"time"
)

func quickCfg() Config {
	return Config{Budget: 5 * time.Second, Threads: 2, Quick: true}
}

// TestRegistryComplete ensures every experiment in paper order has a
// regenerator.
func TestRegistryComplete(t *testing.T) {
	for _, id := range Order {
		if Registry[id] == nil {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(Registry) != len(Order) {
		t.Errorf("registry has %d entries, order lists %d", len(Registry), len(Order))
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "longer"},
		Rows:   [][]string{{"x", "y"}, {"wide-cell", "z"}},
		Notes:  []string{"a note"},
	}
	s := tbl.String()
	for _, frag := range []string{"== demo ==", "longer", "wide-cell", "note: a note"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q in:\n%s", frag, s)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "0.50ms",
		250 * time.Millisecond:  "250ms",
		1500 * time.Millisecond: "1.5s",
		90 * time.Second:        "1.5m",
		2 * time.Hour:           "2.0h",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if r := pearson(xs, xs); r < 0.999 {
		t.Errorf("self correlation = %f", r)
	}
	ys := []float64{4, 3, 2, 1}
	if r := pearson(xs, ys); r > -0.999 {
		t.Errorf("anti correlation = %f", r)
	}
	if r := pearson(xs, xs[:2]); r == r { // NaN expected
		t.Errorf("length mismatch should give NaN, got %f", r)
	}
}

// Smoke-run a representative subset of the experiments in quick mode:
// every table must have rows and no cell may read ERR, so a mis-wired
// query (wrong options, a failing batch) fails here instead of printing
// quietly. Timeouts ("T") are allowed; they depend on the machine.
// Full regeneration happens via cmd/expbench.
func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	cfg := quickCfg()
	for _, id := range []string{"tab5", "fig16", "sec86", "fig18"} {
		tbl := Registry[id](cfg)
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		for _, row := range tbl.Rows {
			for i, c := range row {
				if strings.Contains(c, "ERR") {
					t.Errorf("%s row %v: column %q reads %q", id, row[0], tbl.Header[i], c)
				}
			}
		}
		t.Logf("\n%s", tbl.String())
	}
}

func TestObliviousCensusTotalPositive(t *testing.T) {
	g := RawDataset("cs")
	if total := ObliviousCensusTotal(g, 3); total <= 0 {
		t.Fatalf("census total %d", total)
	}
}

func TestPlansEqualHelper(t *testing.T) {
	if plansEqual(nil, nil) {
		t.Error("nil plans should not be equal")
	}
}
