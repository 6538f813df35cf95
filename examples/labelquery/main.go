// Label-constrained graph query (paper §7.5 / §8.6): count embeddings of
// the Figure 6 pattern where the vertices matching A, B, C carry three
// different labels and B, D, E carry the same label. DecoMine resolves
// each sub-constraint on partially materialized embeddings by choosing a
// cutting set under which every constraint fits inside one subpattern.
//
// The example also materializes a few concrete matches via the
// materialize API.
//
//	go run ./examples/labelquery [dataset]
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"decomine"
)

func main() {
	dataset := "ee"
	if len(os.Args) > 1 {
		dataset = os.Args[1]
	}
	g, err := decomine.Dataset(dataset)
	if err != nil {
		log.Fatal(err)
	}
	if !g.Labeled() {
		log.Fatalf("dataset %s is unlabeled (try cs, ee or mc)", dataset)
	}
	fmt.Println("graph:", g)

	sys := decomine.NewSystem(g, decomine.Options{})
	p, err := decomine.PatternByName("fig6") // A..E = vertices 0..4
	if err != nil {
		log.Fatal(err)
	}
	constraints := []decomine.LabelConstraint{
		{Kind: decomine.AllDifferentLabels, Vertices: []int{0, 1, 2}}, // A,B,C differ
		{Kind: decomine.AllSameLabel, Vertices: []int{1, 3, 4}},       // B,D,E equal
	}

	start := time.Now()
	count, err := sys.CountWithConstraints(p, constraints)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constrained embeddings of %s: %d (%s)\n",
		p, count, time.Since(start).Round(time.Millisecond))

	// A second query in the style of §4.3: centers of star subgraphs,
	// discovered from partial embeddings without materializing the star.
	// Each worker collects its own centers; they are merged after the
	// call. star-5 is the largest star that finishes in seconds on ee
	// (about 6 s on 2 threads); star-6 did not finish in 4 CPU-minutes.
	star, _ := decomine.PatternByName("star-5")
	start = time.Now()
	var perWorker []map[uint32]bool
	err = sys.ProcessPartialEmbeddings(star, func(worker int) decomine.UDF {
		centers := map[uint32]bool{}
		perWorker = append(perWorker, centers)
		return func(pe *decomine.PartialEmbedding, c int64) {
			for i, w := range pe.WholeVertex {
				if w == 0 { // the star center is whole-pattern vertex 0
					centers[pe.Vertices[i]] = true
				}
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	centers := map[uint32]bool{}
	for _, m := range perWorker {
		for v := range m {
			centers[v] = true
		}
	}
	labels := map[uint32]int{}
	for v := range centers {
		labels[g.Label(v)]++
	}
	fmt.Printf("%s centers: %d vertices across %d labels (%s)\n",
		star, len(centers), len(labels), time.Since(start).Round(time.Millisecond))

	// Materialize a handful of whole embeddings from one partial
	// embedding of the constrained pattern's decomposition: each worker
	// keeps the first it sees, and the lowest-numbered worker's wins.
	type firstSeen struct{ pe *decomine.PartialEmbedding }
	var perWorkerSample []*firstSeen
	err = sys.ProcessPartialEmbeddings(p, func(worker int) decomine.UDF {
		first := &firstSeen{}
		perWorkerSample = append(perWorkerSample, first)
		return func(pe *decomine.PartialEmbedding, c int64) {
			if first.pe == nil {
				cp := *pe
				cp.Vertices = append([]uint32(nil), pe.Vertices...)
				first.pe = &cp
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	var sample *decomine.PartialEmbedding
	for _, first := range perWorkerSample {
		if first.pe != nil {
			sample = first.pe
			break
		}
	}
	if sample != nil {
		embs, err := sys.Materialize(p, sample, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("materialized %d whole embeddings from partial %v:\n", len(embs), sample.Vertices)
		for _, e := range embs {
			fmt.Printf("  %v\n", e)
		}
	}
}
