package ast

import (
	"reflect"
	"testing"
)

// lowerClique5 builds the 5-clique counting walk — the canonical
// auxiliary-graph shape: pruned sets s3 = N(v0) ∩ N(v1) and
// s5 = s3 ∩ N(v2) are re-intersected with neighbor lists two loop
// levels below their definitions.
func clique5Prog() *Program {
	b := NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	s1 := b.Neighbors(v0)
	v1 := b.BeginLoop(s1, nil)
	s2 := b.Neighbors(v1)
	s3 := b.Intersect(s1, s2)
	v2 := b.BeginLoop(s3, nil)
	s4 := b.Neighbors(v2)
	s5 := b.Intersect(s3, s4)
	v3 := b.BeginLoop(s5, nil)
	s6 := b.Neighbors(v3)
	x := b.Size(b.Intersect(s5, s6))
	g := b.NewGlobal()
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	return b.Finish()
}

func forceAll(c *AuxCandidate) AuxVerdict  { return AuxVerdict{Materialize: true} }
func rejectAll(c *AuxCandidate) AuxVerdict { return AuxVerdict{} }

// TestAuxCandidateShape pins what the pass finds on the 5-clique walk:
// one table per pruned source, each with one deep use, built at the
// source's defining loop level.
func TestAuxCandidateShape(t *testing.T) {
	l := LowerWith(clique5Prog(), LowerOpts{AuxDecide: forceAll})
	if len(l.AuxDecisions) != 2 {
		t.Fatalf("decisions = %d, want 2\n%s", len(l.AuxDecisions), l.Disassemble())
	}
	if len(l.Aux) != 2 {
		t.Fatalf("materialized tables = %d, want 2", len(l.Aux))
	}
	for _, d := range l.AuxDecisions {
		if !d.Applied {
			t.Fatalf("forced decision not applied: %+v", d)
		}
		if len(d.Uses) != 1 {
			t.Fatalf("table s%d has %d uses, want 1", d.Src, len(d.Uses))
		}
		u := d.Uses[0]
		// Rule 4: the use sits at least two levels below the build.
		if u.Depth < d.SrcDepth+2 {
			t.Errorf("use depth %d too shallow for build depth %d", u.Depth, d.SrcDepth)
		}
		// The enclosing loop is the one whose total prices the use; on
		// this shape every use sits directly in its w-loop's body.
		if u.EncLoopVar != u.LoopVar {
			t.Errorf("use of N(v%d): enclosing loop v%d, want v%d", u.NbrVar, u.EncLoopVar, u.LoopVar)
		}
	}
	// The deep fused count must be one of the rewritten uses.
	var counts int
	for _, d := range l.AuxDecisions {
		for _, u := range d.Uses {
			if u.Count {
				counts++
			}
		}
	}
	if counts != 1 {
		t.Errorf("fused-count uses = %d, want 1", counts)
	}
	// One IAuxBuild per table, each directly after its source's def,
	// and one OpAuxRow alias per use reading a valid table.
	var builds, rows int
	for i := range l.Code {
		ins := &l.Code[i]
		switch {
		case ins.Op == IAuxBuild:
			builds++
			if int(ins.Dst) >= len(l.Aux) {
				t.Fatalf("aux.build targets table %d of %d", ins.Dst, len(l.Aux))
			}
			if ins.A != l.Aux[ins.Dst].Src {
				t.Errorf("aux.build a%d source s%d, table records s%d", ins.Dst, ins.A, l.Aux[ins.Dst].Src)
			}
		case ins.Op == ISetDef && ins.Set == OpAuxRow:
			rows++
			if int(ins.A) >= len(l.Aux) {
				t.Fatalf("aux row reads table %d of %d", ins.A, len(l.Aux))
			}
			if int(ins.Dst) < l.Prog.NumSets {
				t.Errorf("aux row dst s%d collides with a program register", ins.Dst)
			}
		}
	}
	if builds != 2 || rows != 2 {
		t.Fatalf("builds = %d rows = %d, want 2 each\n%s", builds, rows, l.Disassemble())
	}
	if l.NumSets != l.Prog.NumSets+2 {
		t.Errorf("NumSets = %d, want %d program registers + 2 aliases", l.NumSets, l.Prog.NumSets)
	}
}

// TestAuxDisableIdenticalCode verifies the bit-identity contract's
// static half: lowering with no decision callback, and lowering with
// one that rejects every table, both yield the pre-pass instruction
// stream. The reject-all lowering still records its verdicts.
func TestAuxDisableIdenticalCode(t *testing.T) {
	prog := clique5Prog()
	plain := Lower(prog)
	rejected := LowerWith(prog, LowerOpts{AuxDecide: rejectAll})
	if !reflect.DeepEqual(plain.Code, rejected.Code) {
		t.Fatalf("default lowering differs from reject-all lowering")
	}
	if len(plain.Aux) != 0 || len(plain.AuxDecisions) != 0 {
		t.Fatalf("default lowering has %d tables, %d verdicts; want none", len(plain.Aux), len(plain.AuxDecisions))
	}
	if len(rejected.Aux) != 0 {
		t.Fatalf("reject-all lowering materialized %d tables", len(rejected.Aux))
	}
	if len(rejected.AuxDecisions) != 2 {
		t.Fatalf("reject-all lowering recorded %d verdicts, want 2", len(rejected.AuxDecisions))
	}
	for _, d := range rejected.AuxDecisions {
		if d.Applied || d.Table != -1 {
			t.Errorf("reject-all lowering claims an applied table: %+v", d)
		}
	}
}

// TestAuxInsertionKeepsOffsetsValid re-checks the structural invariants
// the VM relies on after the pass has spliced instructions into the
// stream: loop begin/next pairing, segment bounds, and in-range
// register operands.
func TestAuxInsertionKeepsOffsetsValid(t *testing.T) {
	l := LowerWith(clique5Prog(), LowerOpts{AuxDecide: forceAll})
	for i := range l.Code {
		ins := &l.Code[i]
		switch ins.Op {
		case ILoopNext:
			b := ins.Off
			if b < 0 || int(b) >= len(l.Code) || l.Code[b].Op != ILoopBegin {
				t.Fatalf("loop.next %d back-edge %d invalid\n%s", i, b, l.Disassemble())
			}
			if l.Code[b].Off != int32(i)+1 {
				t.Fatalf("loop pair %d/%d exit offset %d, want %d", b, i, l.Code[b].Off, i+1)
			}
			if l.Code[b].LoopID != ins.LoopID {
				t.Fatalf("loop pair %d/%d id mismatch", b, i)
			}
		case ISetDef:
			if ins.Set != OpAll && ins.Set != OpNeighbors && ins.Set != OpAuxRow {
				if int(ins.A) >= l.SetRegs() || (ins.B >= 0 && int(ins.B) >= l.SetRegs()) {
					t.Fatalf("instr %d reads out-of-range set register\n%s", i, l.Disassemble())
				}
			}
		}
	}
	last := int32(0)
	for _, seg := range l.Segments {
		if seg.Start != last {
			t.Fatalf("segment starts at %d, want %d", seg.Start, last)
		}
		if seg.End < seg.Start || int(seg.End) > len(l.Code) {
			t.Fatalf("segment [%d,%d) out of bounds", seg.Start, seg.End)
		}
		if seg.Loop && l.Code[seg.Start].Op != ILoopBegin {
			t.Fatalf("loop segment at %d does not start with loop.begin", seg.Start)
		}
		last = seg.End
	}
	if int(last) != len(l.Code) {
		t.Fatalf("segments cover %d of %d instructions", last, len(l.Code))
	}
}
