package main

import (
	"path/filepath"
	"testing"

	"decomine"
)

// TestLabeledRoundTrip: what graphgen -labels writes must load back as
// the graph it generated. R-MAT scale 10 seed 1 leaves its top vertex
// IDs isolated, so the edge list alone under-counts |V| and only the
// .labels companion says how many vertices there are.
func TestLabeledRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rmat.txt")
	if err := run([]string{"-kind", "rmat", "-scale", "10", "-edgefactor", "8", "-seed", "1", "-labels", "4", "-out", out}); err != nil {
		t.Fatal(err)
	}
	want := decomine.GenerateRMAT(10, 8, 1).WithRandomLabels(4, 2)
	got, err := decomine.LoadGraph(out)
	if err != nil {
		t.Fatalf("graphgen output does not load: %v", err)
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("loaded |V|=%d |E|=%d, generated |V|=%d |E|=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		if got.Label(uint32(v)) != want.Label(uint32(v)) {
			t.Fatalf("label(%d) = %d, generated %d", v, got.Label(uint32(v)), want.Label(uint32(v)))
		}
	}
}
