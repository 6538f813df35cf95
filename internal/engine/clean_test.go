package engine

import (
	"slices"
	"sync/atomic"
	"testing"

	"decomine/internal/ast"
	"decomine/internal/core"
	"decomine/internal/cost"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/sampling"
)

// cleanCase is one hand-built program for TestCleanRules: an outer loop
// over V and an inner loop over N(v0) whose body body builds from
// c1 = |N(v0) ∩ N(v1)| (a fused count), c2 = |N(v1)| and two globals.
// want is how many of some instructions the cleaned code keeps.
type cleanCase struct {
	name string
	body func(b *ast.Builder, c1, c2, g, h int)
	want map[string]int
}

var cleanCases = []cleanCase{
	{"empty conditional goes", func(b *ast.Builder, c1, c2, g, h int) {
		p := b.Mul(c1, c2)
		b.GlobalAdd(g, p, 1)
		b.BeginCond(p)
		b.EndCond()
	}, map[string]int{"cond.skip": 0}},
	{"conditional with a body stays", func(b *ast.Builder, c1, c2, g, h int) {
		b.BeginCond(c1)
		b.GlobalAdd(g, c2, 1)
		b.EndCond()
	}, map[string]int{"cond.skip": 1}},
	{"copy is forwarded", func(b *ast.Builder, c1, c2, g, h int) {
		a := b.NewAccumulator()
		b.Reset(a, 0)
		b.Accum(a, c1, 1)
		b.GlobalAdd(g, a, 1)
	}, map[string]int{"reset": 0, "accum": 0}},
	{"copy read after its source changes stays", func(b *ast.Builder, c1, c2, g, h int) {
		y := b.NewAccumulator()
		b.Reset(y, 0)
		b.Accum(y, c1, 1)
		a := b.NewAccumulator()
		b.Reset(a, 0)
		b.Accum(a, y, 1)
		b.Accum(y, c2, 1)
		b.GlobalAdd(g, a, 1)
		b.GlobalAdd(h, y, 1)
	}, map[string]int{"reset": 2, "accum": 3}},
	{"copy read in another block stays", func(b *ast.Builder, c1, c2, g, h int) {
		a := b.NewAccumulator()
		b.Reset(a, 0)
		b.Accum(a, c1, 1)
		b.BeginCond(c2)
		b.GlobalAdd(g, a, 1)
		b.EndCond()
	}, map[string]int{"reset": 1, "accum": 1}},
	{"copy read before the accumulation stays", func(b *ast.Builder, c1, c2, g, h int) {
		a := b.NewAccumulator()
		b.Reset(a, 0)
		b.GlobalAdd(g, a, 1)
		b.Accum(a, c1, 1)
		b.GlobalAdd(h, a, 1)
	}, map[string]int{"reset": 1, "accum": 1}},
	{"scaled accumulation stays", func(b *ast.Builder, c1, c2, g, h int) {
		a := b.NewAccumulator()
		b.Reset(a, 0)
		b.Accum(a, c1, 2)
		b.GlobalAdd(g, a, 1)
	}, map[string]int{"reset": 1, "accum": 1}},
	{"products merge in either operand order", func(b *ast.Builder, c1, c2, g, h int) {
		p, q := b.Mul(c1, c2), b.Mul(c2, c1)
		b.GlobalAdd(g, p, 1)
		b.GlobalAdd(h, q, 1)
	}, map[string]int{"binary": 1, "global.add": 2}},
	{"swapped differences stay", func(b *ast.Builder, c1, c2, g, h int) {
		p, q := b.Sub(c1, c2), b.Sub(c2, c1)
		b.GlobalAdd(g, p, 1)
		b.GlobalAdd(h, q, 1)
	}, map[string]int{"binary": 2}},
	{"product after an operand changes stays", func(b *ast.Builder, c1, c2, g, h int) {
		a := b.NewAccumulator()
		b.Reset(a, 0)
		b.Accum(a, c1, 1)
		p := b.Mul(a, c2)
		b.Accum(a, c2, 1)
		q := b.Mul(a, c2)
		b.GlobalAdd(g, p, 1)
		b.GlobalAdd(h, q, 1)
	}, map[string]int{"binary": 2}},
	{"global adds fold", func(b *ast.Builder, c1, c2, g, h int) {
		b.GlobalAdd(g, c1, 1)
		b.GlobalAdd(h, c2, 1)
		b.GlobalAdd(g, c1, 2)
	}, map[string]int{"global.add": 2}},
	{"opposite global adds cancel", func(b *ast.Builder, c1, c2, g, h int) {
		b.GlobalAdd(g, c1, 1)
		b.GlobalAdd(g, c1, -1)
		b.GlobalAdd(h, c2, 1)
	}, map[string]int{"global.add": 1, "count": 0}},
	{"global adds of different scalars stay", func(b *ast.Builder, c1, c2, g, h int) {
		b.GlobalAdd(g, c1, 1)
		b.GlobalAdd(g, c2, 1)
	}, map[string]int{"global.add": 2}},
	{"global adds on both sides of a conditional's end stay", func(b *ast.Builder, c1, c2, g, h int) {
		b.BeginCond(c1)
		b.GlobalAdd(g, c2, 1)
		b.EndCond()
		b.GlobalAdd(g, c2, 1)
	}, map[string]int{"global.add": 2}},
	{"global adds across a change stay", func(b *ast.Builder, c1, c2, g, h int) {
		a := b.NewAccumulator()
		b.Reset(a, 0)
		b.Accum(a, c1, 1)
		b.GlobalAdd(g, a, 1)
		b.Accum(a, c2, 1)
		b.GlobalAdd(g, a, 1)
	}, map[string]int{"global.add": 2}},
	{"dead definitions go", func(b *ast.Builder, c1, c2, g, h int) {
		b.Mul(c1, c2)
		b.GlobalAdd(g, c1, 1)
	}, map[string]int{"binary": 0, "scalar": 0}},
	{"definition read only by a conditional stays", func(b *ast.Builder, c1, c2, g, h int) {
		p := b.Mul(c1, c2)
		b.BeginCond(p)
		b.GlobalAdd(g, c1, 1)
		b.EndCond()
	}, map[string]int{"binary": 1, "cond.skip": 1}},
}

// tally counts the instructions of each mnemonic in code; "binary"
// counts the scalar defs with two scalar operands, "trim" the trims and
// "intersect" the materializing intersections.
func tally(code []ast.Instr) map[string]int {
	n := map[string]int{}
	for _, ins := range code {
		n[ins.Op.String()]++
		switch {
		case ins.Op == ast.IScalarDef:
			switch ins.SOp {
			case ast.SMul, ast.SDiv, ast.SSub, ast.SAdd:
				n["binary"]++
			}
		case ins.Op == ast.ISetDef && (ins.Set == ast.OpTrimBelow || ins.Set == ast.OpTrimAbove):
			n["trim"]++
		case ins.Op == ast.ISetDef && ins.Set == ast.OpIntersect:
			n["intersect"]++
			if ins.WinLo >= 0 || ins.WinHi >= 0 {
				n["windowed"]++
			}
		}
		if ins.Flags&(ast.UncutLoA|ast.UncutHiA|ast.UncutLoB|ast.UncutHiB) != 0 {
			n["uncut"]++
		}
	}
	return n
}

// agreeWithTree runs code on one and four threads and requires the
// globals and the emitted total of the tree evaluator, which must count
// something.
func agreeWithTree(t *testing.T, g *graph.Graph, prog *ast.Program, code *ast.Lowered, pins []uint32) {
	t.Helper()
	var emitted atomic.Int64
	sum := ConsumerFunc(func(_ int, _ []uint32, n int64) bool {
		emitted.Add(n)
		return true
	})
	want := evalTree(g, prog, pins, sum)
	wantEmitted := emitted.Swap(0)
	if wantEmitted == 0 && !slices.ContainsFunc(want, func(x int64) bool { return x != 0 }) {
		t.Fatal("the program counts nothing on the test graph")
	}
	for _, threads := range []int{1, 4} {
		res, err := Run(g, prog, Options{Threads: threads, Code: code, Pins: pins,
			NewConsumer: func(int) Consumer { return sum }})
		if err != nil {
			t.Fatal(err)
		}
		if got := emitted.Swap(0); !slices.Equal(res.Globals, want) || got != wantEmitted {
			t.Fatalf("%d threads: globals %v, emitted %d; tree evaluator %v, %d:\n%s",
				threads, res.Globals, got, want, wantEmitted, code.Disassemble())
		}
	}
}

// counted is what rule 7 leaves of one fused count: the keys still
// tested at run time and the constant members.
type counted struct{ keys, imm int }

// exclCases are hand-built programs for rule 7; want lists every fused
// count in code order.
var exclCases = []struct {
	name  string
	pins  int
	build func(b *ast.Builder, g int)
	want  []counted
}{
	{"adjacency is symmetric", 0, func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		v1 := b.BeginLoop(b.Neighbors(v0), nil)
		b.GlobalAdd(g, b.Size(b.Remove(b.Neighbors(v1), v0)), 1) // |N(v1)| − 1
		b.EndLoop()
		b.EndLoop()
	}, []counted{{0, 1}}},
	{"a key is a member of its own domain", 0, func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		d := b.TrimBelow(b.Neighbors(v0), v0)
		v1 := b.BeginLoop(d, nil)
		b.GlobalAdd(g, b.Size(b.Remove(d, v1)), 1)
		b.EndLoop()
		b.EndLoop()
	}, []counted{{0, 1}}},
	{"no self-loops", 0, func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		v1 := b.BeginLoop(b.Neighbors(v0), nil)
		b.GlobalAdd(g, b.Size(b.Remove(b.Neighbors(v1), v1)), 1)
		b.EndLoop()
		b.EndLoop()
	}, []counted{{0, 0}}},
	{"removals in the chain", 0, func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil)
		r := b.Remove(n0, v1)
		v2 := b.BeginLoop(r, nil)
		b.GlobalAdd(g, b.Size(b.Remove(r, v1)), 1) // removed in r
		b.GlobalAdd(g, b.Size(b.Remove(r, v2)), 1) // r is v2's domain
		b.GlobalAdd(g, b.Size(b.Remove(r, v0)), 1) // v0 ≠ v1, and v0 ∉ N(v0)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, []counted{{0, 0}, {0, 1}, {0, 0}}},
	{"windows", 0, func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		v1 := b.BeginLoop(b.TrimBelow(b.Neighbors(v0), v0), nil) // v1 > v0
		n1 := b.Neighbors(v1)
		b.GlobalAdd(g, b.Size(b.Remove(b.TrimBelow(n1, v1), v0)), 1) // v0 is below the window
		b.GlobalAdd(g, b.Size(b.Remove(b.TrimAbove(n1, v1), v0)), 1) // v0 is in it
		b.EndLoop()
		b.EndLoop()
	}, []counted{{0, 0}, {0, 1}}},
	{"unproven adjacency stays at run time", 0, func(b *ast.Builder, g int) {
		all := b.All()
		v0 := b.BeginLoop(all, nil)
		v1 := b.BeginLoop(all, nil)
		b.GlobalAdd(g, b.Size(b.Remove(b.Neighbors(v1), v0)), 1)
		b.EndLoop()
		b.EndLoop()
	}, []counted{{1, 0}}},
	{"pins stay at run time", 1, func(b *ast.Builder, g int) {
		v1 := b.BeginLoop(b.Neighbors(0), nil)
		b.GlobalAdd(g, b.Size(b.Remove(b.Neighbors(v1), 0)), 1)
		b.EndLoop()
	}, []counted{{1, 0}}},
	{"keys that may be equal stay at run time", 0, func(b *ast.Builder, g int) {
		all := b.All()
		v0 := b.BeginLoop(all, nil)
		v1 := b.BeginLoop(b.Neighbors(v0), nil)
		n1 := b.Neighbors(v1)
		v2 := b.BeginLoop(n1, nil)
		// v0 and v2 are both neighbors of v1, and both in every set here.
		b.GlobalAdd(g, b.Size(b.Remove(b.Remove(b.Intersect(n1, all), v0), v2)), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, []counted{{2, 0}}},
	{"multi-bound variables stay at run time", 0, func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v1)), 1)
		b.EndLoop()
		v2 := b.BeginLoop(n0, nil) // rebound to v1 below
		b.GlobalAdd(g, b.Size(b.Remove(b.Neighbors(v2), v0)), 1)
		b.GlobalAdd(g, b.Size(b.Remove(n0, v2)), 1)
		b.EndLoop()
		b.EndLoop()
		rebind(b, v2, v1)
	}, []counted{{1, 0}, {1, 0}}},
}

// rebind makes every loop binding variable from, and every operand
// reading it, use variable to instead.
func rebind(b *ast.Builder, from, to int) {
	ast.Walk(b.Finish().Root, func(n *ast.Node) {
		switch {
		case n.Kind == ast.KLoop && n.Var == from:
			n.Var = to
		case (n.Kind == ast.KSetDef || n.Kind == ast.KScalarDef) && n.V == from:
			n.V = to
		}
	})
}

// TestCleanExclusions checks rule 7 where it must fire and where it must
// not, structurally on the cleaned code and semantically against the
// tree evaluator on one and four threads.
func TestCleanExclusions(t *testing.T) {
	g := graph.RMAT(7, 6, 11)
	for _, tc := range exclCases {
		t.Run(tc.name, func(t *testing.T) {
			b := ast.NewBuilder(tc.pins)
			tc.build(b, b.NewGlobal())
			prog := b.Finish()
			code := ast.LowerUnwindowed(prog, ast.LowerOpts{})
			var got []counted
			for _, ins := range code.Code {
				if ins.Op == ast.ICount {
					got = append(got, counted{int(ins.NKeys), int(ins.Imm)})
				}
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("counts keep (keys, constant) %v, want %v:\n%s", got, tc.want, code.Disassemble())
			}
			var pins []uint32
			if tc.pins > 0 {
				// Input vertex 0, R-MAT's densest corner.
				pins = []uint32{g.InternalID(0)}
			}
			agreeWithTree(t, g, prog, code, pins)
		})
	}
}

// guardCases are hand-built programs for rule 8. Each builds inside a
// loop over N(v1), with v1 over N(v0) and v0 over V, where c = N(v0) ∩
// N(v1) is defined before the loop, often empty and not a superset of
// its domain; want lists, per loop in code order, whether it is guarded.
var guardCases = []struct {
	name string
	body func(b *ast.Builder, c, n1, g int)
	want []bool
}{
	{"a product with a count factor over c", func(b *ast.Builder, c, n1, g int) {
		v2 := b.BeginLoop(n1, nil)
		n2 := b.Neighbors(v2)
		b.GlobalAdd(g, b.Mul(b.Size(n2), b.Size(b.Intersect(c, n2))), 2)
		b.EndLoop()
	}, []bool{false, false, true}},
	{"a nested loop", func(b *ast.Builder, c, n1, g int) {
		v2 := b.BeginLoop(n1, nil)
		v3 := b.BeginLoop(b.Neighbors(v2), nil)
		b.GlobalAdd(g, b.Size(b.Intersect(c, b.Neighbors(v3))), 1)
		b.EndLoop()
		b.EndLoop()
	}, []bool{false, false, false, true}},
	{"an add without the factor", func(b *ast.Builder, c, n1, g int) {
		v2 := b.BeginLoop(n1, nil)
		n2 := b.Neighbors(v2)
		b.GlobalAdd(g, b.Size(b.Intersect(c, n2)), 1)
		b.GlobalAdd(g, b.Size(n2), 1)
		b.EndLoop()
	}, []bool{false, false, false}},
	{"an accumulation", func(b *ast.Builder, c, n1, g int) {
		a := b.NewAccumulator()
		b.Reset(a, 0)
		v2 := b.BeginLoop(n1, nil)
		x := b.Size(b.Intersect(c, b.Neighbors(v2)))
		b.Accum(a, x, 1)
		b.GlobalAdd(g, x, 1)
		b.EndLoop()
		b.GlobalAdd(g, a, 1)
	}, []bool{false, false, false}},
	{"an emit", func(b *ast.Builder, c, n1, g int) {
		v2 := b.BeginLoop(n1, nil)
		x := b.Size(b.Intersect(c, b.Neighbors(v2)))
		b.Emit(0, []int{v2}, b.Size(n1))
		b.GlobalAdd(g, x, 1)
		b.EndLoop()
	}, []bool{false, false, false}},
	{"a hash op", func(b *ast.Builder, c, n1, g int) {
		h := b.NewTable()
		b.HashClear(h)
		v2 := b.BeginLoop(n1, nil)
		b.HashInc(h, []int{v2}, 1)
		b.GlobalAdd(g, b.Size(b.Intersect(c, b.Neighbors(v2))), 1)
		b.EndLoop()
		b.GlobalAdd(g, b.HashGet(h, []int{0}), 1)
	}, []bool{false, false, false}},
	{"a definition read after the loop", func(b *ast.Builder, c, n1, g int) {
		v2 := b.BeginLoop(n1, nil) // never empty: v0 ∈ N(v1)
		x := b.Size(b.Intersect(c, b.Neighbors(v2)))
		b.GlobalAdd(g, x, 1)
		b.EndLoop()
		b.GlobalAdd(g, x, 1) // the last iteration's count
	}, []bool{false, false, false}},
	{"a guard that is a superset of the domain", func(b *ast.Builder, c, n1, g int) {
		v2 := b.BeginLoop(c, nil)
		b.GlobalAdd(g, b.Size(b.Intersect(c, b.Neighbors(v2))), 1)
		b.EndLoop()
	}, []bool{false, false, false}},
}

// TestCleanGuards checks rule 8 where it must fire and where it must
// not, structurally and against the tree evaluator on one and four
// threads.
func TestCleanGuards(t *testing.T) {
	g := graph.RMAT(7, 6, 11)
	for _, tc := range guardCases {
		t.Run(tc.name, func(t *testing.T) {
			b := ast.NewBuilder(0)
			gl := b.NewGlobal()
			v0 := b.BeginLoop(b.All(), nil)
			n0 := b.Neighbors(v0)
			v1 := b.BeginLoop(n0, nil)
			n1 := b.Neighbors(v1)
			c := b.Intersect(n0, n1)
			tc.body(b, c, n1, gl)
			b.EndLoop()
			b.EndLoop()
			prog := b.Finish()
			code := ast.LowerUnwindowed(prog, ast.LowerOpts{})
			var got []bool
			for _, ins := range code.Code {
				if ins.Op == ast.ILoopBegin {
					got = append(got, ins.B >= 0)
				}
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("loops guarded %v, want %v:\n%s", got, tc.want, code.Disassemble())
			}
			agreeWithTree(t, g, prog, code, nil)
		})
	}
}

// trimCases are whole hand-built programs for rule 6 (restriction-
// implied trims) and the count re-fusion it enables.
var trimCases = []struct {
	name  string
	build func(b *ast.Builder, g int)
	want  map[string]int
}{
	{"implied trims go and the count absorbs the intersection", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil) // v1 > v0
		c := b.Intersect(n0, b.Neighbors(v1))
		b.GlobalAdd(g, b.Size(b.TrimBelow(b.TrimBelow(c, v0), v1)), 1)
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"trim": 1, "intersect": 0, "count": 1}},
	{"the order is transitive", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil) // v1 > v0
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c1, v1), nil) // v2 > v1, so v2 > v0
		c2 := b.Intersect(c1, b.Neighbors(v2))
		b.GlobalAdd(g, b.Size(b.TrimBelow(b.TrimBelow(c2, v0), v2)), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"trim": 2, "intersect": 1, "count": 1}},
	{"upper trims go symmetrically", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimAbove(n0, v0), nil) // v1 < v0
		c := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimAbove(b.TrimAbove(c, v0), v1), nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v2)), 1)
		b.EndLoop()
		b.GlobalAdd(g, b.Size(b.TrimAbove(b.TrimAbove(c, v0), v1)), 1)
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"trim": 2}},
	{"the order reads both ways", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil)
		c := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimAbove(c, v1), nil) // v2 < v1, known from v2's domain
		b.GlobalAdd(g, b.Size(b.TrimBelow(b.TrimBelow(b.Intersect(c, b.Neighbors(v2)), v2), v1)), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"trim": 1, "intersect": 1, "count": 1}},
	{"siblings without an order keep their trims", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		d := b.TrimBelow(n0, v0)
		v1 := b.BeginLoop(d, nil) // v1 > v0
		v2 := b.BeginLoop(d, nil) // v2 > v0, unordered against v1
		b.GlobalAdd(g, b.Size(b.TrimBelow(b.TrimBelow(n0, v1), v2)), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"trim": 2}},
	{"mixed windows keep their trims", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil) // v1 > v0
		c := b.Intersect(n0, b.Neighbors(v1))
		// Below v0, so nothing in m is above v1: reading past m is wrong.
		m := b.TrimAbove(c, v0)
		v2 := b.BeginLoop(b.TrimBelow(m, v1), nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v2)), 1)
		b.EndLoop()
		b.GlobalAdd(g, b.CountAbove(m, v1), 1)
		b.GlobalAdd(g, b.Size(c), 1)
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"trim": 3}},
}

// TestCleanTrimRedirect checks rule 6 and the re-fusion after it where
// they must fire and where they must not, structurally on the cleaned
// code and semantically against the tree evaluator on one and four
// threads.
func TestCleanTrimRedirect(t *testing.T) {
	g := graph.RMAT(7, 6, 11)
	for _, tc := range trimCases {
		t.Run(tc.name, func(t *testing.T) {
			b := ast.NewBuilder(0)
			tc.build(b, b.NewGlobal())
			prog := b.Finish()
			code := ast.LowerUnwindowed(prog, ast.LowerOpts{})
			got := tally(code.Code)
			for op, n := range tc.want {
				if got[op] != n {
					t.Fatalf("%d %s instructions, want %d:\n%s", got[op], op, n, code.Disassemble())
				}
			}
			agreeWithTree(t, g, prog, code, nil)
		})
	}
}

// windowCases are hand-built programs for rule 9; want counts
// instructions of the windowed code.
var windowCases = []struct {
	name  string
	build func(b *ast.Builder, g int)
	want  map[string]int
}{
	{"a clique chain windows every intersection", func(b *ast.Builder, g int) {
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
	}, map[string]int{"windowed": 2, "trim": 1, "count": 1}},
	{"upper windows go symmetrically", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimAbove(n0, v0), nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimAbove(c1, v1), nil)
		b.GlobalAdd(g, b.Size(b.TrimAbove(b.Intersect(c1, b.Neighbors(v2)), v2)), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"windowed": 1, "trim": 1, "count": 1}},
	{"a whole read rules the window out", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		c := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c, v1), nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v2)), 1)
		b.EndLoop()
		b.GlobalAdd(g, b.Size(c), 1)
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"windowed": 0, "trim": 2}},
	{"trims pass both windows on", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil) // unordered against v0
		c := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimAbove(b.TrimBelow(c, v0), v1), nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v2)), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"windowed": 1, "trim": 0}},
	{"a subtraction reads its operands whole", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil)
		c := b.Intersect(b.Neighbors(v1), b.All())
		b.GlobalAdd(g, b.CountAbove(b.Subtract(c, n0), v1), 1)
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"windowed": 0}},
	{"an operand inside the window is not cut", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
		c1 := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c1, v1), nil)
		c2 := b.Intersect(c1, b.Neighbors(v2))
		v3 := b.BeginLoop(b.TrimAbove(b.TrimBelow(c2, v1), v2), nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v3)), 1)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"windowed": 2, "uncut": 1}},
	{"a window too loose for a reader keeps its trim", func(b *ast.Builder, g int) {
		v0 := b.BeginLoop(b.All(), nil)
		n0 := b.Neighbors(v0)
		v1 := b.BeginLoop(n0, nil) // unordered against v0
		c := b.Intersect(n0, b.Neighbors(v1))
		v2 := b.BeginLoop(b.TrimBelow(c, v0), nil)
		b.GlobalAdd(g, b.Size(b.Neighbors(v2)), 1)
		b.EndLoop()
		b.GlobalAdd(g, b.CountAbove(c, v1), 1)
		b.EndLoop()
		b.EndLoop()
	}, map[string]int{"windowed": 0, "trim": 1}},
}

// TestCleanWindows checks rule 9 where it must fire and where it must
// not, structurally on the windowed code and semantically against the
// tree evaluator on one and four threads, in the list form and with
// local regions; the programs of rule 6's cases must agree with the
// tree evaluator windowed too.
func TestCleanWindows(t *testing.T) {
	g := graph.RMAT(7, 6, 11)
	for _, tc := range windowCases {
		t.Run(tc.name, func(t *testing.T) {
			b := ast.NewBuilder(0)
			tc.build(b, b.NewGlobal())
			prog := b.Finish()
			code := ast.LowerListForm(prog, ast.LowerOpts{})
			got := tally(code.Code)
			for op, n := range tc.want {
				if got[op] != n {
					t.Fatalf("%d %s instructions, want %d:\n%s", got[op], op, n, code.Disassemble())
				}
			}
			agreeWithTree(t, g, prog, code, nil)
			agreeWithTree(t, g, prog, ast.Lower(prog), nil)
		})
	}
	for _, tc := range trimCases {
		t.Run("rule 6: "+tc.name, func(t *testing.T) {
			b := ast.NewBuilder(0)
			tc.build(b, b.NewGlobal())
			prog := b.Finish()
			agreeWithTree(t, g, prog, ast.Lower(prog), nil)
		})
	}
}

// TestCleanRules checks each clean-up rule where it must fire and where
// it must not, structurally on the cleaned code and semantically against
// the tree evaluator on one and four threads.
func TestCleanRules(t *testing.T) {
	g := graph.RMAT(7, 6, 11)
	for _, tc := range cleanCases {
		t.Run(tc.name, func(t *testing.T) {
			b := ast.NewBuilder(0)
			all := b.All()
			gl, hl := b.NewGlobal(), b.NewGlobal()
			v0 := b.BeginLoop(all, nil)
			n0 := b.Neighbors(v0)
			v1 := b.BeginLoop(n0, nil)
			n1 := b.Neighbors(v1)
			c1 := b.Size(b.Intersect(n0, n1))
			c2 := b.Size(n1)
			tc.body(b, c1, c2, gl, hl)
			b.EndLoop()
			b.EndLoop()
			prog := b.Finish()
			code := ast.LowerUnwindowed(prog, ast.LowerOpts{})
			got := tally(code.Code)
			for op, n := range tc.want {
				if got[op] != n {
					t.Fatalf("%d %s instructions, want %d:\n%s", got[op], op, n, code.Disassemble())
				}
			}
			agreeWithTree(t, g, prog, code, nil)
		})
	}
}

// TestCleanKeepsSegmentsSplittable: the bytecode clean-up pass only
// deletes instructions, renames operands, re-fuses counts and windows
// intersections, so every top-level segment the scheduler may split at
// depth 1 in the uncleaned stream must stay splittable in the cleaned
// one, with and without rule 9. The programs are the
// chosen plans of every connected 3–5-vertex pattern — edge-induced,
// with every shrinkage quotient externalized, and vertex-induced — on a
// hub R-MAT and a community graph; rule 6 must delete trims in some.
func TestCleanKeepsSegmentsSplittable(t *testing.T) {
	if testing.Short() {
		t.Skip("searches every 3–5-vertex pattern")
	}
	for _, g := range []*graph.Graph{graph.RMAT(8, 6, 5), graph.Community(160, 3, 8, 7)} {
		prof := sampling.BuildProfile(g, sampling.Options{SampleEdges: 2000, Trials: 500, Seed: 3})
		model := cost.NewApproxMining(cost.StatsOf(g), prof)
		var plans []*core.Plan
		search := func(p *pattern.Pattern, opts core.SearchOptions) *core.Plan {
			opts.Model, opts.Mode = model, core.ModeCount
			best, _, err := core.Search(p, opts)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			plans = append(plans, best.Plan)
			return best.Plan
		}
		for k := 3; k <= 5; k++ {
			for _, p := range pattern.ConnectedPatterns(k) {
				if plan := search(p, core.SearchOptions{}); len(plan.Shrink) > 0 {
					skip := map[pattern.Code]bool{}
					for _, sh := range plan.Shrink {
						skip[sh.Code] = true
					}
					search(p, core.SearchOptions{SkipShrinkCodes: skip})
				}
				search(p, core.SearchOptions{Induced: true})
			}
		}
		splittable, trimmed := 0, 0
		for _, plan := range plans {
			raw := ast.LowerUncleaned(plan.Prog, plan.LowerOpts)
			clean := ast.LowerUnwindowed(plan.Prog, plan.LowerOpts)
			if tally(clean.Code)["trim"] < tally(raw.Code)["trim"] {
				trimmed++
			}
			before := analyzeD1(raw)
			for _, code := range []*ast.Lowered{clean, ast.LowerWith(plan.Prog, plan.LowerOpts)} {
				after := analyzeD1(code)
				for si := range before {
					if before[si].ok && !after[si].ok {
						t.Fatalf("%s: segment %d splittable before the clean-up pass, not after\nbefore:\n%s\nafter:\n%s",
							plan.Desc, si, raw.Disassemble(), code.Disassemble())
					}
				}
			}
			for si := range before {
				if before[si].ok {
					splittable++
				}
			}
		}
		if splittable == 0 || trimmed == 0 {
			t.Fatalf("%s: %d splittable segments, %d plans with trims deleted, among %d plans", g, splittable, trimmed, len(plans))
		}
	}
}

// TestElidedInstructions: a profile's Elided count is exactly what the
// clean-up pass spared the run when every deletion sits outside
// conditionals — uncleaned minus cleaned instructions — on one thread
// and under the stealing pool, where outer iterations run through
// execChunk or, split at depth 1, through execD1. The depth-1 loop is
// guarded on the neighbors of v0 above v0 (rule 8), and each iteration
// the guard skips is charged its body length plus the loop's Imm.
func TestElidedInstructions(t *testing.T) {
	b := ast.NewBuilder(0)
	all := b.All()
	gl := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	b.Mul(b.Size(n0), b.Size(n0)) // dead: two defs and the product go
	above := b.TrimBelow(n0, v0)
	v1 := b.BeginLoop(n0, nil)
	n1 := b.Neighbors(v1)
	a := b.NewAccumulator()
	b.Reset(a, 0)
	b.Accum(a, b.Size(b.Intersect(above, n1)), 1) // a copy: both go
	b.GlobalAdd(gl, a, 1)
	b.EndLoop()
	b.EndLoop()
	prog := b.Finish()
	raw := ast.LowerUncleaned(prog, ast.LowerOpts{})
	clean := ast.LowerUnwindowed(prog, ast.LowerOpts{})
	unguarded := *clean
	unguarded.Code = slices.Clone(clean.Code)
	guards := 0
	for i := range unguarded.Code {
		if ins := &unguarded.Code[i]; ins.Op == ast.ILoopBegin && ins.B >= 0 {
			ins.B = -1
			guards++
		}
	}
	if guards != 1 {
		t.Fatalf("%d guarded loops, want 1:\n%s", guards, clean.Disassemble())
	}
	g := graph.RMAT(9, 8, 99)
	pool := NewPool(4)
	defer pool.Close()
	for _, threads := range []int{1, 4} {
		run := func(code *ast.Lowered) *Result {
			res, err := Run(g, prog, Options{Threads: threads, Pool: pool, Code: code, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want, got, open := run(raw), run(clean), run(&unguarded)
		if want.Profile.Elided != 0 {
			t.Fatalf("uncleaned run elided %d instructions", want.Profile.Elided)
		}
		if !slices.Equal(got.Globals, want.Globals) || !slices.Equal(open.Globals, want.Globals) {
			t.Fatalf("%d threads: globals %v guarded, %v unguarded, %v uncleaned", threads, got.Globals, open.Globals, want.Globals)
		}
		if got.InstructionsExecuted() >= open.InstructionsExecuted() {
			t.Fatalf("%d threads: the guard skipped nothing (%d instructions guarded, %d unguarded)",
				threads, got.InstructionsExecuted(), open.InstructionsExecuted())
		}
		for _, res := range []*Result{got, open} {
			spared := want.InstructionsExecuted() - res.InstructionsExecuted()
			if spared <= 0 || res.Profile.Elided != spared {
				t.Fatalf("%d threads: profile elided %d, the pass spared %d\n%s", threads, res.Profile.Elided, spared, clean.Disassemble())
			}
		}
	}
}
