package ast

import (
	"strings"
	"testing"
)

// buildRedundant builds a program with a loop-invariant def and duplicate
// intersections (in both operand orders) inside the inner loop:
//
//	s0 = V
//	for v0 in s0 { s1 = N(v0)
//	  for v1 in s1 {
//	    s2 = N(v0)        # invariant in v1 (LICM) and duplicate of s1 (CSE)
//	    s3 = N(v1)
//	    s4 = s2 ∩ s3
//	    s5 = s3 ∩ s2      # commutative duplicate (CSE)
//	    x1 = |s4|; x2 = |s5|
//	    g0 += x1; g0 += x2 } }
func buildRedundant() *Program {
	b := NewBuilder(0)
	all := b.All()
	g := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	n0dup := b.Neighbors(v0)
	n1 := b.Neighbors(v1)
	i1 := b.Intersect(n0dup, n1)
	i2 := b.Intersect(n1, n0dup)
	x1 := b.Size(i1)
	x2 := b.Size(i2)
	b.GlobalAdd(g, x1, 1)
	b.GlobalAdd(g, x2, 1)
	b.EndLoop()
	b.EndLoop()
	return b.Finish()
}

func TestOptimizeRemovesRedundancy(t *testing.T) {
	p := buildRedundant()
	before := Summarize(p)
	Optimize(p)
	after := Summarize(p)
	if err := p.Validate(); err != nil {
		t.Fatalf("optimized program invalid: %v", err)
	}
	if after.SetDefs >= before.SetDefs {
		t.Fatalf("CSE/LICM did not reduce set defs: %d -> %d", before.SetDefs, after.SetDefs)
	}
	// The duplicate N(v0) must be gone and only one intersection remain.
	var intersections, neighborDefs int
	Walk(p.Root, func(n *Node) {
		if n.Kind == KSetDef {
			switch n.Op {
			case OpIntersect:
				intersections++
			case OpNeighbors:
				neighborDefs++
			}
		}
	})
	if intersections != 1 {
		t.Errorf("intersections after CSE = %d, want 1", intersections)
	}
	if neighborDefs != 2 { // N(v0), N(v1)
		t.Errorf("neighbor defs after CSE = %d, want 2", neighborDefs)
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	// A def depending only on v0 sits in the v1 loop and must move out.
	b := NewBuilder(0)
	all := b.All()
	g := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	_ = b.BeginLoop(n0, nil)
	inv := b.TrimAbove(n0, v0) // depends only on v0: invariant in v1
	x := b.Size(inv)
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	b.EndLoop()
	p := b.Finish()

	LICM(p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The trim def must now be a sibling of the inner loop (depth 1).
	depthOf := map[int]int{}
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		if n.Kind == KSetDef && n.Op == OpTrimAbove {
			depthOf[n.Dst] = d
		}
		for _, c := range n.Body {
			dd := d
			if n.Kind == KLoop {
				dd = d // children of this node are at depth d (n itself at d-1)
			}
			_ = dd
			if c.Kind == KLoop {
				rec(c, d+1)
			} else {
				rec(c, d)
			}
		}
	}
	rec(p.Root, 0)
	for _, d := range depthOf {
		if d != 1 {
			t.Fatalf("trim def at depth %d, want 1", d)
		}
	}
}

func TestDCERemovesDeadDefs(t *testing.T) {
	b := NewBuilder(0)
	all := b.All()
	g := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	_ = b.Neighbors(v0) // identical def, but even without CSE it is dead
	dead := b.Intersect(n0, n0)
	_ = dead
	x := b.Size(n0)
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	p := b.Finish()

	removed := DCE(p)
	if removed == 0 {
		t.Fatal("DCE removed nothing")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st := Summarize(p)
	if st.SetDefs != 2 { // s0=V, s1=N(v0)
		t.Fatalf("set defs after DCE = %d, want 2", st.SetDefs)
	}
}

func TestCSEDoesNotMergeVolatileReads(t *testing.T) {
	// x1 = acc + c; acc += c; x2 = acc + c. x1 and x2 must stay distinct.
	b := NewBuilder(0)
	g := b.NewGlobal()
	acc := b.NewAccumulator()
	b.Reset(acc, 1)
	c := b.Const(5)
	x1 := b.Add(acc, c)
	b.Accum(acc, c, 1)
	x2 := b.Add(acc, c)
	b.GlobalAdd(g, x1, 1)
	b.GlobalAdd(g, x2, 1)
	p := b.Finish()

	CSE(p)
	adds := 0
	Walk(p.Root, func(n *Node) {
		if n.Kind == KScalarDef && n.SOp == SAdd {
			adds++
		}
	})
	if adds != 2 {
		t.Fatalf("volatile-reading adds merged: %d remain, want 2", adds)
	}
}

func TestValidate(t *testing.T) {
	good := buildRedundant()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := &Program{Root: &Node{Kind: KLoop}}
	if err := bad.Validate(); err == nil {
		t.Fatal("root-kind check missed")
	}
}

func TestPrintShape(t *testing.T) {
	p := buildRedundant()
	s := Print(p)
	for _, frag := range []string{"for v0 in s0", "N(v0)", "∩", "g0 +="} {
		if !strings.Contains(s, frag) {
			t.Errorf("printed program missing %q:\n%s", frag, s)
		}
	}
}

func TestBuilderPanicsOnUnbalanced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b := NewBuilder(0)
	all := b.All()
	b.BeginLoop(all, nil)
	b.Finish()
}

func TestSummarize(t *testing.T) {
	p := buildRedundant()
	st := Summarize(p)
	if st.Loops != 2 || st.MaxDepth != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
