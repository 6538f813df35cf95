package decomine

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"decomine/internal/obs"
	"decomine/internal/pattern"
)

// respellTestGraph is a small labeled graph on which isomorphic
// spellings of the constrained and emitted test patterns disagree when
// a plan compiled for one spelling is served to another.
func respellTestGraph() *Graph {
	return GenerateGNP(60, 0.12, 4242).WithRandomLabels(3, 7)
}

// TestConstrainedRespellingSharedSystem: a constrained count names the
// asker's vertices, so after one spelling of a pattern was compiled
// with a constraint, an isomorphic respelling with the same constraint
// text must still get its own answer — the one a fresh System gives and
// brute-force enumeration confirms.
func TestConstrainedRespellingSharedSystem(t *testing.T) {
	g := respellTestGraph()
	cons := []LabelConstraint{{Kind: AllSameLabel, Vertices: []int{1, 2}}}
	cases := []struct{ first, respelled string }{
		{"0-1,1-2", "1-0,0-2"},
		{"0-1,1-2,2-3", "1-0,0-2,2-3"},
		{"0-1,1-2,2-0,2-3", "0-1,1-2,2-0,0-3"},
	}
	for _, tc := range cases {
		want := brute(g, MustParsePattern(tc.respelled).p, cons).constrained
		fresh := NewSystem(g, Options{Threads: 2})
		got, err := fresh.CountWithConstraints(MustParsePattern(tc.respelled), cons)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s on a fresh System: %d, brute force %d", tc.respelled, got, want)
		}
		shared := NewSystem(g, Options{Threads: 2})
		if _, err := shared.CountWithConstraints(MustParsePattern(tc.first), cons); err != nil {
			t.Fatal(err)
		}
		got, err = shared.CountWithConstraints(MustParsePattern(tc.respelled), cons)
		shared.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s after %s was compiled: %d, want %d", tc.respelled, tc.first, got, want)
		}
	}
}

// checkPartialEmbeddings runs ProcessPartialEmbeddings on p and fails
// when any delivered embedding breaks p's own edges or labels under its
// WholeVertex mapping — the contract Materialize relies on. It returns
// the embeddings, rendered and sorted, for comparison across Systems.
func checkPartialEmbeddings(t testing.TB, s *System, g *Graph, p *Pattern) []string {
	t.Helper()
	type worker struct {
		lines []string
		bad   int
		first string
	}
	var workers []*worker
	err := s.ProcessPartialEmbeddings(p, func(int) UDF {
		w := &worker{}
		workers = append(workers, w)
		return func(pe *PartialEmbedding, count int64) {
			line := fmt.Sprint(pe.SubpatternIndex, pe.Vertices, pe.WholeVertex, count)
			w.lines = append(w.lines, line)
			for i, u := range pe.Vertices {
				wu := pe.WholeVertex[i]
				ok := p.p.Label(wu) == pattern.NoLabel || g.Label(u) == p.p.Label(wu)
				for j, v := range pe.Vertices {
					if wv := pe.WholeVertex[j]; wu != wv && p.HasEdge(wu, wv) && !g.HasEdge(u, v) {
						ok = false
					}
				}
				if !ok {
					if w.bad++; w.bad == 1 {
						w.first = line
					}
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, w := range workers {
		all = append(all, w.lines...)
		if w.bad > 0 {
			t.Errorf("%s: %d partial embeddings break its edges or labels, e.g. %s", p, w.bad, w.first)
		}
	}
	sort.Strings(all)
	return all
}

// TestPartialEmbeddingsRespelling: emission plans map subpattern
// vertices into the asker's numbering, so after another spelling of a
// pattern was compiled, a respelling must receive partial embeddings
// that satisfy its own edges and labels — the same ones a fresh System
// delivers.
func TestPartialEmbeddingsRespelling(t *testing.T) {
	g := respellTestGraph()
	labeled := func(s string, v int) *Pattern {
		p := MustParsePattern(s)
		p.SetVertexLabel(v, 1)
		return p
	}
	cases := []struct{ first, respelled *Pattern }{
		{MustParsePattern("0-1,1-2,2-0,2-3,3-4"), MustParsePattern("3-4,4-2,2-3,2-1,1-0")},
		{MustParsePattern("0-1,1-2,2-3,3-0,0-4"), MustParsePattern("1-2,2-3,3-4,4-1,3-0")},
		{labeled("0-1,1-2,2-3", 0), labeled("2-0,0-1,1-3", 2)},
	}
	for _, tc := range cases {
		first, respelled := tc.first, tc.respelled
		fresh := NewSystem(g, Options{Threads: 2})
		want := checkPartialEmbeddings(t, fresh, g, respelled)
		fresh.Close()
		shared := NewSystem(g, Options{Threads: 2})
		checkPartialEmbeddings(t, shared, g, first)
		got := checkPartialEmbeddings(t, shared, g, respelled)
		shared.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s after %s: %d partial embeddings differ from a fresh System's %d",
				respelled, first, len(got), len(want))
		}
	}
}

// TestVertexInducedSlowQueryLog: a vertex-induced count runs its plans
// as ordinary queries, so at a 1 ns threshold each lands in the
// slow-query log — whichever of the direct and indirect methods the
// cost model picks.
func TestVertexInducedSlowQueryLog(t *testing.T) {
	obs.ResetSlowQueries()
	obs.SetSlowQueryThreshold(time.Nanosecond)
	defer obs.SetSlowQueryThreshold(0)
	defer obs.ResetSlowQueries()
	sys := NewSystem(GenerateGNP(80, 0.1, 5), Options{Threads: 2, CostModel: CostLocality})
	defer sys.Close()
	for _, name := range []string{"chain-3", "cycle-4", "house"} {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		before := sys.CacheStats()
		if _, err := sys.GetPatternCountVertexInduced(p); err != nil {
			t.Fatal(err)
		}
		after := sys.CacheStats()
		lookups := after.Hits + after.Misses + after.NegativeHits - before.Hits - before.Misses - before.NegativeHits
		classes := len(pattern.ConversionPlan(p.p))
		if lookups != 1+int64(classes) {
			t.Errorf("%s: %d plan-cache lookups, want one per plan priced (%d)", name, lookups, 1+classes)
		}
		var direct, indirect int
		for _, sq := range obs.SlowQueries() {
			switch {
			case strings.HasPrefix(sq.Name, "count-vi:"):
				direct++
			case strings.HasPrefix(sq.Name, "count:"):
				indirect++
			}
		}
		if (direct != 1 || indirect != 0) && (direct != 0 || indirect != classes) {
			t.Errorf("%s: %d direct and %d indirect slow-query records, want one direct run or all %d class runs",
				name, direct, indirect, classes)
		}
		obs.ResetSlowQueries()
	}
}

// FuzzPlanCacheRespelling: a pattern of at most five vertices, a vertex
// permutation and an optional label constraint. A System that first
// compiled the original spelling must answer the permuted spelling —
// its constrained count and its partial embeddings — exactly as a
// fresh System does.
func FuzzPlanCacheRespelling(f *testing.F) {
	f.Add(uint16(0b0000000011), uint8(0), uint16(1), uint8(1), uint8(0b110))
	f.Add(uint16(0b0101100111), uint8(2), uint16(57), uint8(2), uint8(0b10011))
	f.Add(uint16(0b1111111111), uint8(2), uint16(119), uint8(0), uint8(0))
	f.Add(uint16(0b0010010111), uint8(1), uint16(13), uint8(1), uint8(0b1001))
	g := GenerateGNP(30, 0.2, 99).WithRandomLabels(2, 3)
	f.Fuzz(func(t *testing.T, edges uint16, size uint8, perm uint16, kind uint8, members uint8) {
		n := 3 + int(size%3)
		p := pattern.New(n)
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if edges&(1<<bit) != 0 {
					p.AddEdge(u, v)
				}
				bit++
			}
		}
		if !p.Connected() {
			return
		}
		// Lehmer-decode perm into a permutation of the n vertices.
		free := []int{0, 1, 2, 3, 4}[:n]
		order := make([]int, n)
		for i, rest := 0, int(perm); i < n; i++ {
			j := rest % len(free)
			rest /= len(free)
			order[i] = free[j]
			free = append(free[:j:j], free[j+1:]...)
		}
		q := pattern.New(n)
		for _, e := range p.Edges() {
			q.AddEdge(order[e[0]], order[e[1]])
		}
		var cons []LabelConstraint
		if kind%3 != 0 {
			c := LabelConstraint{Kind: AllSameLabel}
			if kind%3 == 2 {
				c.Kind = AllDifferentLabels
			}
			for v := 0; v < n; v++ {
				if members&(1<<v) != 0 {
					c.Vertices = append(c.Vertices, v)
				}
			}
			if len(c.Vertices) >= 2 {
				cons = []LabelConstraint{c}
			}
		}
		opts := Options{Threads: 1, CostModel: CostLocality}
		fresh := NewSystem(g, opts)
		defer fresh.Close()
		shared := NewSystem(g, opts)
		defer shared.Close()
		orig, resp := &Pattern{p}, &Pattern{q}
		if cons != nil {
			want, err := fresh.CountWithConstraints(resp, cons)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := shared.CountWithConstraints(orig, cons); err != nil {
				t.Fatal(err)
			}
			got, err := shared.CountWithConstraints(resp, cons)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %v after %s: %d, fresh System %d", resp, cons, orig, got, want)
			}
		}
		want := checkPartialEmbeddings(t, fresh, g, resp)
		checkPartialEmbeddings(t, shared, g, orig)
		if got := checkPartialEmbeddings(t, shared, g, resp); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after %s: %d partial embeddings, fresh System %d", resp, orig, len(got), len(want))
		}
	})
}
