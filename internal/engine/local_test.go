package engine

import (
	"testing"

	"decomine/internal/ast"
	"decomine/internal/graph"
)

// localCases are hand-built programs for the local-region pass; want
// counts instructions of the lowered code.
var localCases = []struct {
	name  string
	build func(b *ast.Builder, g int)
	want  map[string]int
}{
	{"a clique chain indexes N⁺(v0) with upper rows", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c1, v1), nil)
		b.GlobalAdd(g, b.Size(b.TrimBelow(b.Intersect(c1, b.Neighbors(v2)), v2)), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 1, "upper": 1}},
	{"whole reads index N(v0) with whole rows", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(c1, nil)
		n2 := b.Neighbors(v2)
		b.GlobalAdd(g, b.Size(b.Remove(b.Subtract(c1, n2), v1)), 1)
		b.GlobalAdd(g, b.Size(b.Remove(b.Intersect(c1, n2), v0)), 2)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 1, "upper": 0}},
	{"one-sided counts read ranks", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(c1, nil)
		b.GlobalAdd(g, b.CountAbove(c1, v2), 1)
		b.GlobalAdd(g, b.CountBelow(b.Intersect(c1, b.Neighbors(v2)), v1), 3)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 1}},
	{"a guard reads a mask", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimAbove(n0, v1), nil)
		b.GlobalAdd(g, b.Size(b.Intersect(c1, b.Neighbors(v2))), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 1, "guarded": 1}},
	{"emissions bind IDs", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c1, v1), nil)
		b.Emit(0, []int{v0, v1, v2}, b.Size(b.Intersect(c1, b.Neighbors(v2))))
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 1}},
	{"a removal clears a bit", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c1, v1), nil)
		r := b.Remove(c1, v2)
		v3 := b.BeginLoop(b.TrimBelow(r, v2), nil)
		b.GlobalAdd(g, b.Size(b.Intersect(r, b.Neighbors(v3))), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 1}},
	{"excluded keys are tested on ranks, once per value", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c1, v1), nil)
		v3 := b.BeginLoop(b.TrimBelow(c1, v1), nil)
		b.GlobalAdd(g, b.Size(b.Remove(b.Remove(b.Intersect(c1, b.Neighbors(v2)), v3), v1)), 1)
		b.GlobalAdd(g, b.Size(b.Remove(b.Remove(c1, v2), v3)), 5)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 1}},
	{"a degree keeps the list form", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c1, v1), nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v2)), 1)
		b.GlobalAdd(g, b.Size(b.Intersect(c1, b.Neighbors(v2))), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 0}},
	{"a set outside N(v0) keeps the list form", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil)
		n1 := b.Neighbors(v1)
		v2 := b.BeginLoop(b.Intersect(n0, n1), nil)
		b.GlobalAdd(g, b.Size(b.Intersect(n1, b.Neighbors(v2))), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 0}},
	{"triangles gain nothing", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		b.GlobalAdd(g, b.CountAbove(b.Intersect(n0, b.Neighbors(v1)), v1), 1)
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"local.build": 0}},
}

// localGraphs are the graphs the word form is checked on: a community
// graph, whose neighbourhoods fit one word; an R-MAT without hub rows,
// whose widest neighbourhoods take several words or exceed the budget;
// the same R-MAT with hub rows, whose roots next to a hub keep the list
// form; and a community graph on more IDs than S's span index covers,
// whose roots with a widely spread S keep the list form.
func localGraphs() []*graph.Graph {
	plain := graph.RMAT(9, 16, 4)
	plain.BuildHubIndex(plain.NumVertices() + 1)
	hubs := graph.RMAT(9, 16, 4)
	hubs.BuildHubIndex(40)
	return []*graph.Graph{graph.Community(200, 4, 10, 5), plain, hubs, graph.Community(64*spanWords+1000, 2, 8, 6)}
}

// TestLocalRegions checks the local-region pass where it must fire and
// where it must not, structurally on the lowered code and semantically
// against the tree evaluator on one and four threads.
func TestLocalRegions(t *testing.T) {
	graphs := localGraphs()
	if d := graphs[1].MaxDegree(); d <= 64*localWords {
		t.Fatalf("R-MAT's widest neighbourhood has %d vertices, within the word budget", d)
	}
	for _, tc := range localCases {
		t.Run(tc.name, func(t *testing.T) {
			b := ast.NewBuilder(0)
			tc.build(b, b.NewGlobal())
			prog := b.Finish()
			code := ast.Lower(prog)
			got := tally(code.Code)
			for _, ins := range code.Code {
				switch {
				case ins.Op == ast.ILocalBuild && ins.Imm != 0:
					got["upper"]++
				case ins.Op == ast.ILoopBegin && ins.B >= 0 && ins.Flags&ast.FlagLocal != 0:
					got["guarded"]++
				}
			}
			for op, n := range tc.want {
				if got[op] != n {
					t.Fatalf("%d %s, want %d:\n%s", got[op], op, n, code.Disassemble())
				}
			}
			for _, g := range graphs {
				agreeWithTree(t, g, prog, code, nil)
			}
		})
	}
}

// TestLocalRegionSkipsTables: a table whose source lies in S is built
// only on roots that keep the list form, and a build glued before S's
// definition moves after the region's build, which decides first.
func TestLocalRegionSkipsTables(t *testing.T) {
	b := ast.NewBuilder(0)
	g := b.NewGlobal()
	v0 := b.BeginLoop(b.All(), nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
	c1 := b.Intersect(n0, b.Neighbors(v1))
	v2 := b.BeginLoop(b.TrimBelow(c1, v1), nil)
	c2 := b.Intersect(c1, b.Neighbors(v2))
	v3 := b.BeginLoop(b.TrimBelow(c2, v2), nil)
	b.GlobalAdd(g, b.Size(b.TrimBelow(b.Intersect(c2, b.Neighbors(v3)), v3)), 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	prog := b.Finish()
	force := ast.LowerOpts{AuxDecide: func(*ast.AuxCandidate) ast.AuxVerdict { return ast.AuxVerdict{Materialize: true} }}
	code := ast.LowerWith(prog, force)
	build, table := -1, -1
	for pc, ins := range code.Code {
		switch ins.Op {
		case ast.ILocalBuild:
			build = pc
		case ast.IAuxBuild:
			if ins.Flags&ast.FlagLocal != 0 {
				table = pc
			}
		}
	}
	if build < 0 || table < build {
		t.Fatalf("local.build at %d, a skippable aux.build at %d:\n%s", build, table, code.Disassemble())
	}
	graphs := localGraphs()
	for _, g := range graphs {
		agreeWithTree(t, g, prog, code, nil)
	}
	// The word form reads rows where the list form builds tables: no
	// merge runs on the small community graph, whose every root fits the
	// span index; on the wide one, roots whose S spreads over more IDs
	// keep the list form and still build and merge.
	list := ast.LowerListForm(prog, force)
	for i, g := range []*graph.Graph{graphs[0], graphs[3]} {
		words, _ := Run(g, prog, Options{Threads: 1, Code: code})
		lists, _ := Run(g, prog, Options{Threads: 1, Code: list})
		merged := words.KernelElems[KernelMerge]
		if words.KernelCounts[KernelWords] == 0 || merged >= lists.KernelElems[KernelMerge] || (merged > 0) != (i == 1) {
			t.Fatalf("%s: kernel elements %v with local regions, %v without", g, words.KernelElems, lists.KernelElems)
		}
	}
}

// TestOrientedRootTrims: a trim of a root's own neighbor list by the
// root is annotated (NbrA == V) and served as the graph's oriented list,
// N⁺(v) or N⁻(v), with the tree evaluator's counts; graph's
// FuzzVertexOrder checks those lists against the binary-search slices.
func TestOrientedRootTrims(t *testing.T) {
	for _, above := range []bool{true, false} {
		b := ast.NewBuilder(0)
		g := b.NewGlobal()
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		trim := b.TrimAbove(n0, v0)
		if above {
			trim = b.TrimBelow(n0, v0)
		}
		v1 := b.BeginLoop(trim, nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v1)), 1)
		b.EndLoop()
		b.EndLoop()
		prog := b.Finish()
		code := ast.Lower(prog)
		oriented := 0
		for _, ins := range code.Code {
			if ins.Op == ast.ISetDef && (ins.Set == ast.OpTrimBelow || ins.Set == ast.OpTrimAbove) && ins.NbrA == ins.V {
				oriented++
			}
		}
		if oriented != 1 {
			t.Fatalf("%d trims read as oriented lists:\n%s", oriented, code.Disassemble())
		}
		for _, gr := range []*graph.Graph{graph.RMAT(7, 6, 11), graph.Community(120, 3, 8, 2)} {
			agreeWithTree(t, gr, prog, code, nil)
		}
	}
}
