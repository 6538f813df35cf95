package ast

import "testing"

// TestAnnotateFusedCount checks the neighbor-operand annotation on the
// triangle program, whose intersect+size is fused into one ICount: both
// operands are plain neighbor sets, so NbrA/NbrB name the loop
// variables that defined them.
func TestAnnotateFusedCount(t *testing.T) {
	l := lowerTriangle(t)
	var count *Instr
	for i := range l.Code {
		if l.Code[i].Op == ICount {
			count = &l.Code[i]
		}
	}
	if count == nil {
		t.Fatalf("no ICount in\n%s", l.Disassemble())
	}
	if count.NbrA != 0 || count.NbrB != 1 {
		t.Fatalf("ICount NbrA/NbrB = %d/%d, want 0/1\n%s", count.NbrA, count.NbrB, l.Disassemble())
	}
}

// TestAnnotateMaterializedOps builds a 4-clique-style program where the
// first intersection is materialized (it feeds a loop), plus a
// subtract: the ISetDef annotations must name neighbor operands and
// mark derived sets with -1.
func TestAnnotateMaterializedOps(t *testing.T) {
	b := NewBuilder(0)
	all := b.All()
	g := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	n1 := b.Neighbors(v1)
	common := b.Intersect(n0, n1) // materialized: looped over below
	rest := b.Subtract(common, n1)
	// The subtract needs a reader, or the clean-up pass deletes it; the
	// size does not fuse it (fusion absorbs removes, trims and
	// intersections only).
	b.GlobalAdd(g, b.Size(rest), 1)
	v2 := b.BeginLoop(common, nil)
	n2 := b.Neighbors(v2)
	x := b.Size(b.Intersect(common, n2))
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	l := Lower(b.Finish())

	var sawMat, sawSub, sawCount bool
	for i := range l.Code {
		ins := &l.Code[i]
		switch {
		case ins.Op == ISetDef && ins.Set == OpIntersect:
			// common = N(v0) ∩ N(v1): both operands are neighbor sets.
			if ins.NbrA != 0 || ins.NbrB != 1 {
				t.Fatalf("intersect NbrA/NbrB = %d/%d, want 0/1\n%s", ins.NbrA, ins.NbrB, l.Disassemble())
			}
			sawMat = true
		case ins.Op == ISetDef && ins.Set == OpSubtract:
			// rest = common \ N(v1): A is derived, B is a neighbor set.
			if ins.NbrA != -1 || ins.NbrB != 1 {
				t.Fatalf("subtract NbrA/NbrB = %d/%d, want -1/1\n%s", ins.NbrA, ins.NbrB, l.Disassemble())
			}
			sawSub = true
		case ins.Op == ICount:
			// |common ∩ N(v2)| fused: A is derived, B is a neighbor set.
			if ins.NbrA != -1 || ins.NbrB != 2 {
				t.Fatalf("count NbrA/NbrB = %d/%d, want -1/2\n%s", ins.NbrA, ins.NbrB, l.Disassemble())
			}
			sawCount = true
		}
	}
	if !sawMat || !sawSub || !sawCount {
		t.Fatalf("missing instructions (intersect=%v subtract=%v count=%v)\n%s",
			sawMat, sawSub, sawCount, l.Disassemble())
	}
}

// TestAnnotateCountWithoutB: ICounts over a bare windowed set (B < 0)
// must leave NbrB at -1.
func TestAnnotateCountWithoutB(t *testing.T) {
	b := NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	x := b.Size(b.TrimBelow(n0, v0))
	g := b.NewGlobal()
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	l := Lower(b.Finish())
	for i := range l.Code {
		ins := &l.Code[i]
		if ins.Op == ICount && ins.B < 0 && ins.NbrB != -1 {
			t.Fatalf("B-less ICount NbrB = %d, want -1\n%s", ins.NbrB, l.Disassemble())
		}
	}
}
