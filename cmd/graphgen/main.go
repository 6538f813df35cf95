// Command graphgen writes synthetic benchmark graphs as edge-list files
// loadable by the decomine CLI and library (plus a .labels companion for
// labeled graphs), or — with -format slab — as binary slab files that
// reload via mmap in seconds instead of re-parsing text (labels are
// embedded, no companion file).
//
// Usage:
//
//	graphgen -out graph.txt -kind rmat -scale 16 -edgefactor 8 [-labels 10] [-seed 42]
//	graphgen -out graph.txt -kind gnp  -n 10000 -p 0.001
//	graphgen -out graph.txt -kind smallworld -n 1000 -k 8 -beta 0.1
//	graphgen -out graph.txt -dataset wk     # dump a builtin dataset
//	graphgen -out graph.slab -format slab -kind rmat -scale 20
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"decomine"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("graphgen", flag.ExitOnError)
	out := fs.String("out", "", "output edge-list path (required)")
	kind := fs.String("kind", "rmat", "generator: rmat, gnp, smallworld")
	dataset := fs.String("dataset", "", "dump a builtin dataset instead of generating")
	scale := fs.Int("scale", 16, "rmat: log2(|V|)")
	edgeFactor := fs.Int("edgefactor", 8, "rmat: edges per vertex")
	n := fs.Int("n", 10000, "gnp/smallworld: vertex count")
	p := fs.Float64("p", 0.001, "gnp: edge probability")
	k := fs.Int("k", 8, "smallworld: neighbors per side")
	beta := fs.Float64("beta", 0.1, "smallworld: rewiring probability")
	labels := fs.Int("labels", 0, "attach this many random vertex labels (0 = unlabeled)")
	seed := fs.Int64("seed", 42, "random seed")
	format := fs.String("format", "edgelist", "output format: edgelist (text) or slab (binary, mmap-loadable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *out == "" {
		fs.Usage()
		return fmt.Errorf("-out is required")
	}
	var g *decomine.Graph
	var err error
	switch {
	case *dataset != "":
		g, err = decomine.Dataset(*dataset)
	case *kind == "rmat":
		g = decomine.GenerateRMAT(*scale, *edgeFactor, *seed)
	case *kind == "gnp":
		g = decomine.GenerateGNP(*n, *p, *seed)
	case *kind == "smallworld":
		g = decomine.GenerateSmallWorld(*n, *k, *beta, *seed)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	if *labels > 0 {
		g = g.WithRandomLabels(*labels, *seed+1)
	}

	switch *format {
	case "slab":
		if err := g.WriteSlabFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %s\n", *out, g)
		return nil
	case "edgelist":
		// fall through to the text writer below
	default:
		return fmt.Errorf("unknown format %q (want edgelist or slab)", *format)
	}
	if err := writeFile(*out, g.WriteEdgeList); err != nil {
		return err
	}
	if g.Labeled() {
		err := writeFile(*out+".labels", func(w io.Writer) error {
			bw := bufio.NewWriter(w)
			for v := 0; v < g.NumVertices(); v++ {
				fmt.Fprintln(bw, g.Label(uint32(v)))
			}
			return bw.Flush()
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %s\n", *out, g)
	return nil
}

// writeFile creates path, fills it with write, and reports the first
// error of create, write and close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
