package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// LoadEdgeList reads an undirected graph from a whitespace-separated
// edge-list stream in the SNAP style: one "u v" pair per line, lines
// beginning with '#' or '%' ignored. Duplicate edges and self loops are
// dropped. Vertex IDs must be non-negative integers; they are the input
// IDs of the result, which Build renumbers by (degree, input ID) like
// every graph (InputID and InternalID translate).
func LoadEdgeList(r io.Reader, name string) (*Graph, error) {
	return loadEdgeList(r, name, 0)
}

// loadEdgeList is LoadEdgeList for a graph with at least minVertices
// vertices: IDs in [0, minVertices) that no edge names are isolated.
func loadEdgeList(r io.Reader, name string, minVertices int) (*Graph, error) {
	b := NewBuilder(minVertices)
	b.SetName(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[1], err)
		}
		b.AddEdge(uint32(u), uint32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %v", err)
	}
	return b.Build()
}

// LoadEdgeListFile opens path and calls LoadEdgeList. An optional labels
// file (path + ".labels", one integer label per vertex per line) is
// attached if present. An edge list cannot name an isolated vertex, so
// the labels file is authoritative for |V|: vertices it labels beyond
// the largest ID any edge names are loaded as isolated vertices (what
// graphgen -labels writes when a generator leaves its top IDs
// isolated). Labels are listed by input ID. A labels file shorter than
// the edge list's vertex range is an error.
func LoadEdgeListFile(path string) (*Graph, error) {
	labels, err := loadLabelsFile(path + ".labels")
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := loadEdgeList(f, path, len(labels))
	if err != nil {
		return nil, err
	}
	if labels != nil {
		if len(labels) != g.NumVertices() {
			return nil, fmt.Errorf("graph: %d labels for %d vertices", len(labels), g.NumVertices())
		}
		g.setLabels(labels)
	}
	return g, nil
}

// loadLabelsFile reads one label per line; a missing file is (nil, nil).
func loadLabelsFile(path string) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	labels := []uint32{} // non-nil: an empty file is a (too short) labels file
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		l, err := strconv.ParseUint(line, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad label %q: %v", line, err)
		}
		labels = append(labels, uint32(l))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return labels, nil
}

// WriteEdgeList writes the graph as "u v" lines (u < v) in internal IDs,
// suitable for LoadEdgeList, which numbers them the same way again.
func (g *Graph) WriteEdgeList(w io.Writer) error { return g.writeEdgeList(w, g.Edges) }

// WriteInputEdgeList writes the graph as "u v" lines (u < v) in input
// IDs, ordered by u and then v: the edge list of the graph it was built
// from, less duplicates and self loops.
func (g *Graph) WriteInputEdgeList(w io.Writer) error { return g.writeEdgeList(w, g.inputEdges) }

// inputEdges is Edges in input IDs, ordered by u and then v.
func (g *Graph) inputEdges(fn func(u, v uint32)) {
	var row []uint32
	for x, u := range g.rank {
		row = row[:0]
		for _, v := range g.Neighbors(u) {
			if y := g.order[v]; y > uint32(x) {
				row = append(row, y)
			}
		}
		slices.Sort(row)
		for _, y := range row {
			fn(uint32(x), y)
		}
	}
}

// writeEdgeList writes a header and then every edge edges visits.
func (g *Graph) writeEdgeList(w io.Writer, edges func(fn func(u, v uint32))) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %s |V|=%d |E|=%d\n", g.nonEmptyName(), g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	edges(func(u, v uint32) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
