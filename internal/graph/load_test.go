package graph

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestLoadEdgeListFileWithLabels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := GNP(50, 0.1, 404).WithRandomLabels(4, 405)

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	lf, err := os.Create(path + ".labels")
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(lf)
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintln(w, g.Label(uint32(v)))
	}
	w.Flush()
	lf.Close()

	got, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d vs %d", got.NumEdges(), g.NumEdges())
	}
	if !got.Labeled() {
		t.Fatal("labels not loaded")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got.Label(uint32(v)) != g.Label(uint32(v)) {
			t.Fatalf("label mismatch at %d", v)
		}
	}
}

func TestLoadEdgeListFileWithoutLabels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Labeled() {
		t.Fatal("phantom labels")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges %d", g.NumEdges())
	}
}

func TestLoadEdgeListFileMissing(t *testing.T) {
	if _, err := LoadEdgeListFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadEdgeListFileBadLabels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Fewer labels than the edge list has vertices (an empty file too).
	for _, short := range []string{"1\n", ""} {
		if err := os.WriteFile(path+".labels", []byte(short), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEdgeListFile(path); err == nil {
			t.Fatalf("labels file %q accepted for a 2-vertex edge list", short)
		}
	}
	// Non-numeric label.
	if err := os.WriteFile(path+".labels", []byte("a\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEdgeListFile(path); err == nil {
		t.Fatal("bad label accepted")
	}
}

// TestLoadEdgeListFileTrailingIsolatedLabels: an edge list cannot name
// an isolated vertex, so a labels file longer than the edge list's
// vertex range is authoritative for |V| — the extra labeled vertices
// load as isolated vertices instead of failing the load.
func TestLoadEdgeListFileTrailingIsolatedLabels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".labels", []byte("7\n8\n9\n4\n5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 2 {
		t.Fatalf("loaded |V|=%d |E|=%d, want 5 and 2", g.NumVertices(), g.NumEdges())
	}
	// The labels file lists labels by input ID.
	for x, want := range []uint32{7, 8, 9, 4, 5} {
		if got := g.Label(g.InternalID(uint32(x))); got != want {
			t.Fatalf("label of input vertex %d = %d, want %d", x, got, want)
		}
	}
	for _, x := range []uint32{3, 4} {
		if d := g.Degree(g.InternalID(x)); d != 0 {
			t.Fatalf("trailing vertex %d has degree %d, want isolated", x, d)
		}
	}
}
