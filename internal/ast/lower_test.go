package ast

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func lowerTriangle(t *testing.T) *Lowered {
	t.Helper()
	b := NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	n1 := b.Neighbors(v1)
	common := b.Intersect(n0, n1)
	x := b.Size(common)
	g := b.NewGlobal()
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	b.EndLoop()
	return Lower(b.Finish())
}

func TestLowerTriangleStructure(t *testing.T) {
	l := lowerTriangle(t)
	wantOps := []OpCode{
		ISetDef,    // s0 = V
		ILoopBegin, // v0
		ISetDef,    // s1 = N(v0)
		ILoopBegin, // v1
		ISetDef,    // s2 = N(v1)
		ICount,     // x0 = |s1 ∩ s2|  (intersect+size fused)
		IGlobalAdd, // g0 += x0
		ILoopNext,  // v1
		ILoopNext,  // v0
	}
	if len(l.Code) != len(wantOps) {
		t.Fatalf("code length %d, want %d\n%s", len(l.Code), len(wantOps), l.Disassemble())
	}
	for i, op := range wantOps {
		if l.Code[i].Op != op {
			t.Fatalf("instr %d: op %s, want %s\n%s", i, l.Code[i].Op, op, l.Disassemble())
		}
	}
	if l.NumLoops != 2 {
		t.Fatalf("NumLoops = %d, want 2", l.NumLoops)
	}
}

func TestLowerOffsetsMatchLoopPairs(t *testing.T) {
	l := lowerTriangle(t)
	// Every ILoopNext points back at its ILoopBegin, and the begin's
	// empty-set exit points just past the next.
	for i := range l.Code {
		ins := &l.Code[i]
		if ins.Op != ILoopNext {
			continue
		}
		b := ins.Off
		begin := &l.Code[b]
		if begin.Op != ILoopBegin {
			t.Fatalf("loop.next %d back-edge %d is %s, not loop.begin", i, b, begin.Op)
		}
		if begin.LoopID != ins.LoopID || begin.Dst != ins.Dst || begin.A != ins.A {
			t.Fatalf("loop pair %d/%d operand mismatch", b, i)
		}
		if begin.Off != int32(i)+1 {
			t.Fatalf("loop.begin %d exit %d, want %d", b, begin.Off, i+1)
		}
	}
}

func TestLowerSegments(t *testing.T) {
	l := lowerTriangle(t)
	// Root body: one set def (s0 = V), one loop.
	if len(l.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(l.Segments))
	}
	if l.Segments[0].Loop || l.Segments[0].Start != 0 || l.Segments[0].End != 1 {
		t.Fatalf("segment 0 = %+v", l.Segments[0])
	}
	s1 := l.Segments[1]
	if !s1.Loop || s1.Start != 1 || s1.End != int32(len(l.Code)) {
		t.Fatalf("segment 1 = %+v", s1)
	}
	if l.Code[s1.Start].Op != ILoopBegin || l.Code[s1.End-1].Op != ILoopNext {
		t.Fatal("loop segment not delimited by loop.begin/loop.next")
	}
	if s1.Var != l.Code[s1.Start].Dst || s1.Over != l.Code[s1.Start].A {
		t.Fatalf("segment loop metadata %+v != begin instr %+v", s1, l.Code[s1.Start])
	}
}

func TestLowerCondSkipOffset(t *testing.T) {
	b := NewBuilder(0)
	all := b.All()
	gl := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	d := b.Size(n0)
	b.BeginCond(d)
	one := b.Const(1)
	b.GlobalAdd(gl, one, 1)
	b.EndCond()
	b.EndLoop()
	l := Lower(b.Finish())

	var cond *Instr
	var condIdx int
	for i := range l.Code {
		if l.Code[i].Op == ICondSkip {
			cond = &l.Code[i]
			condIdx = i
		}
	}
	if cond == nil {
		t.Fatal("no cond.skip emitted")
	}
	// Body is const + global.add; skip target must be the loop.next that
	// directly follows the body.
	if cond.Off != int32(condIdx)+3 {
		t.Fatalf("cond.skip target %d, want %d\n%s", cond.Off, condIdx+3, l.Disassemble())
	}
	if l.Code[cond.Off].Op != ILoopNext {
		t.Fatalf("cond.skip lands on %s, want loop.next", l.Code[cond.Off].Op)
	}
}

func TestLowerKeysPooled(t *testing.T) {
	b := NewBuilder(0)
	all := b.All()
	tab := b.NewTable()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	b.HashInc(tab, []int{v0, v1}, 1)
	x := b.HashGet(tab, []int{v1, v0})
	b.Emit(0, []int{v0, v1}, x)
	b.EndLoop()
	b.EndLoop()
	l := Lower(b.Finish())

	got := map[OpCode][]int32{}
	for i := range l.Code {
		ins := &l.Code[i]
		switch ins.Op {
		case IHashInc, IHashGet, IEmit:
			got[ins.Op] = append([]int32(nil), l.KeyVars(ins)...)
		}
	}
	if len(got[IHashInc]) != 2 || got[IHashInc][0] != int32(v0) || got[IHashInc][1] != int32(v1) {
		t.Fatalf("hash.inc keys %v", got[IHashInc])
	}
	if len(got[IHashGet]) != 2 || got[IHashGet][0] != int32(v1) || got[IHashGet][1] != int32(v0) {
		t.Fatalf("hash.get keys %v", got[IHashGet])
	}
	if len(got[IEmit]) != 2 {
		t.Fatalf("emit keys %v", got[IEmit])
	}
	// All keys live in the one shared pool.
	if len(l.Keys) != 6 {
		t.Fatalf("key pool size %d, want 6", len(l.Keys))
	}
}

func TestDisassembleRendersEveryInstruction(t *testing.T) {
	l := lowerTriangle(t)
	dis := l.Disassemble()
	lines := strings.Split(strings.TrimRight(dis, "\n"), "\n")
	if len(lines) != len(l.Code) {
		t.Fatalf("disassembly has %d lines for %d instructions:\n%s", len(lines), len(l.Code), dis)
	}
	for _, frag := range []string{"loop.begin", "loop.next", "set", "count", "global.add", "∩"} {
		if !strings.Contains(dis, frag) {
			t.Fatalf("disassembly missing %q:\n%s", frag, dis)
		}
	}
}

func TestLowerFusesRemoveChain(t *testing.T) {
	// N(v1) − {v0} − {v1} feeding only a size must fuse into one ICount
	// with no surviving OpRemove defs. v1 is drawn from N(v0), so v0 is
	// always in N(v1) and v1 never is: the count is |N(v1)| − 1.
	b := NewBuilder(0)
	all := b.All()
	gl := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	n1 := b.Neighbors(v1)
	r1 := b.Remove(n1, v0)
	r2 := b.Remove(r1, v1)
	x := b.Size(r2)
	b.GlobalAdd(gl, x, 1)
	b.EndLoop()
	b.EndLoop()
	l := Lower(b.Finish())

	count := fusedRemoveCount(t, l)
	if count.NKeys != 0 || count.Imm != 1 {
		t.Fatalf("fused count has %d excluded vars and constant %d, want 0 and 1:\n%s", count.NKeys, count.Imm, l.Disassemble())
	}
	if !strings.Contains(l.Disassemble(), "| − 1") {
		t.Fatalf("disassembly does not show the constant:\n%s", l.Disassemble())
	}
}

func TestLowerFusesRemoveChainKeepsUnprovenKeys(t *testing.T) {
	// The same chain with v0 and v1 drawn from V independently: whether
	// v0 is in N(v1) is decided at run time, with the key dedup.
	b := NewBuilder(0)
	all := b.All()
	gl := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	v1 := b.BeginLoop(all, nil)
	v2 := b.BeginLoop(all, nil)
	r := b.Remove(b.Remove(b.Neighbors(v2), v0), v1)
	b.GlobalAdd(gl, b.Size(r), 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	l := Lower(b.Finish())

	count := fusedRemoveCount(t, l)
	if count.NKeys != 2 || count.Imm != 0 {
		t.Fatalf("fused count has %d excluded vars and constant %d, want 2 and 0:\n%s", count.NKeys, count.Imm, l.Disassemble())
	}
}

// fusedRemoveCount returns the one fused count of l, which must have
// absorbed every removal and the whole chain.
func fusedRemoveCount(t *testing.T, l *Lowered) *Instr {
	t.Helper()
	var count *Instr
	for i := range l.Code {
		ins := &l.Code[i]
		if ins.Op == ISetDef && ins.Set == OpRemove {
			t.Fatalf("unfused remove at %d:\n%s", i, l.Disassemble())
		}
		if ins.Op == ICount {
			count = ins
		}
	}
	if count == nil {
		t.Fatalf("no fused count:\n%s", l.Disassemble())
	}
	if count.B != -1 || count.V != -1 || count.SA != -1 {
		t.Fatalf("fused count has unexpected operands %+v", count)
	}
	// Compaction must have re-resolved loop offsets.
	for i := range l.Code {
		ins := &l.Code[i]
		if ins.Op == ILoopNext && l.Code[ins.Off].Op != ILoopBegin {
			t.Fatalf("post-compaction back-edge %d -> %d broken", i, ins.Off)
		}
	}
	return count
}

func TestLowerFusesTrimIntoBound(t *testing.T) {
	// s ∩ {x > v} then size fuses into a bounded count; chained onto an
	// intersection it absorbs both into a single instruction.
	b := NewBuilder(0)
	all := b.All()
	gl := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(n0, nil)
	n1 := b.Neighbors(v1)
	c := b.Intersect(n0, n1)
	trimmed := b.TrimBelow(c, v1)
	x := b.Size(trimmed)
	b.GlobalAdd(gl, x, 1)
	b.EndLoop()
	b.EndLoop()
	l := Lower(b.Finish())

	var count *Instr
	for i := range l.Code {
		ins := &l.Code[i]
		if ins.Op == ISetDef && (ins.Set == OpIntersect || ins.Set == OpTrimBelow) {
			t.Fatalf("unfused set op at %d:\n%s", i, l.Disassemble())
		}
		if ins.Op == ICount {
			count = ins
		}
	}
	if count == nil {
		t.Fatalf("no fused count:\n%s", l.Disassemble())
	}
	if count.B < 0 {
		t.Fatalf("intersection not absorbed: %+v", count)
	}
	if count.V != int32(v1) {
		t.Fatalf("lower bound var %d, want %d", count.V, v1)
	}
}

func TestLowerDoesNotFuseMultiUseSets(t *testing.T) {
	// A set that is both sized and iterated must stay materialized.
	b := NewBuilder(0)
	all := b.All()
	gl := b.NewGlobal()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	r := b.Remove(n0, v0)
	x := b.Size(r)
	b.GlobalAdd(gl, x, 1)
	v1 := b.BeginLoop(r, nil)
	one := b.Const(1)
	b.GlobalAdd(gl, one, 1)
	_ = v1
	b.EndLoop()
	b.EndLoop()
	l := Lower(b.Finish())

	foundRemove := false
	for i := range l.Code {
		ins := &l.Code[i]
		if ins.Op == ISetDef && ins.Set == OpRemove {
			foundRemove = true
		}
		if ins.Op == ICount {
			t.Fatalf("multi-use set wrongly fused:\n%s", l.Disassemble())
		}
	}
	if !foundRemove {
		t.Fatalf("remove def disappeared:\n%s", l.Disassemble())
	}
}

func TestLowerOptimizedProgram(t *testing.T) {
	// Lowering must accept whatever the optimizer produces.
	b := NewBuilder(0)
	all := b.All()
	v0 := b.BeginLoop(all, nil)
	n0 := b.Neighbors(v0)
	n0b := b.TrimAbove(n0, v0)
	v1 := b.BeginLoop(n0b, nil)
	n1 := b.Neighbors(v1)
	common := b.Intersect(n0, n1)
	x := b.CountBelow(common, v1)
	g := b.NewGlobal()
	b.GlobalAdd(g, x, 1)
	b.EndLoop()
	b.EndLoop()
	prog := b.Finish()
	Optimize(prog)
	l := Lower(prog)
	if len(l.Code) == 0 || len(l.Segments) == 0 {
		t.Fatal("empty lowering of optimized program")
	}
	for i := range l.Code {
		ins := &l.Code[i]
		if ins.Op == ILoopBegin && (ins.Off <= int32(i) || ins.Off > int32(len(l.Code))) {
			t.Fatalf("instr %d: bad loop exit %d", i, ins.Off)
		}
		if ins.Op == ICondSkip && (ins.Off <= int32(i) || ins.Off > int32(len(l.Code))) {
			t.Fatalf("instr %d: bad cond target %d", i, ins.Off)
		}
	}
}

func TestFuseCountsKeepsConstantMembers(t *testing.T) {
	// Re-fusion from a count with constant members (clean-up rule 7)
	// carries the constant through an absorbed trim, but stops at a
	// removal: its key was never proved distinct from those members.
	l := &Lowered{
		Code: []Instr{
			{Op: ISetDef, Set: OpAll, Dst: 0},
			{Op: ISetDef, Set: OpRemove, Dst: 1, A: 0, V: 0},
			{Op: ISetDef, Set: OpTrimBelow, Dst: 2, A: 1, V: 0},
			{Op: ICount, Dst: 0, A: 2, B: -1, V: -1, SA: -1, Imm: 1},
		},
		Segments: []Segment{{Start: 0, End: 4}},
	}
	keep, fused := l.fuseCounts()
	got := l.Code[3]
	if !fused || !slices.Equal(keep, []bool{true, true, false, true}) ||
		got.A != 1 || got.V != 0 || got.NKeys != 0 || got.Imm != 1 {
		t.Fatalf("fused %v, kept %v, count %+v; want the trim absorbed into |s1 : x > v0| − 1", fused, keep, got)
	}
}

// TestWindowedPrinters: rule 9 windows a clique chain's intersections,
// and both printers say so: the disassembly with the window and the
// operand read as an oriented list, the pseudo-code with what runs.
func TestWindowedPrinters(t *testing.T) {
	b := NewBuilder(0)
	g := b.NewGlobal()
	v0 := b.BeginLoop(b.All(), nil)
	n0 := b.Neighbors(v0)
	v1 := b.BeginLoop(b.TrimBelow(n0, v0), nil)
	n1 := b.Neighbors(v1)
	c := b.Intersect(n0, n1)
	v2 := b.BeginLoop(b.TrimBelow(c, v1), nil)
	b.GlobalAdd(g, b.Size(b.TrimBelow(b.Intersect(c, b.Neighbors(v2)), v2)), 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	l := Lower(b.Finish())
	dis, pseudo := l.Disassemble(), l.Pseudocode()
	for _, want := range []string{
		fmt.Sprintf("s%d = s%d ∩ s%d : x > v%d  ; s%d = N⁺(v%d)\n", c, n0, n1, v1, n1, v1),
		fmt.Sprintf(" : x > v%d|  ; s", v2),
		fmt.Sprintf("= N⁺(v%d)\n", v2),
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly lacks %q:\n%s", want, dis)
		}
	}
	if want := fmt.Sprintf("s%d = s%d ∩ s%d  # runs as s%d ∩ N⁺(v%d) : x > v%d", c, n0, n1, n0, v1, v1); !strings.Contains(pseudo, want) {
		t.Errorf("pseudo-code lacks %q:\n%s", want, pseudo)
	}
	if plain := Print(l.Prog); strings.Contains(plain, "runs as") {
		t.Errorf("Print annotates windows:\n%s", plain)
	}
}

// TestLocalPrinters: the clique chain's levels below N⁺(v0) run on
// words, and both printers say so: the disassembly with the build, the
// `·w` mnemonics and the rows, the pseudo-code with S, the masks, the
// rows and the loops over bits. Print stays the AST alone.
func TestLocalPrinters(t *testing.T) {
	b := NewBuilder(0)
	g := b.NewGlobal()
	v0 := b.BeginLoop(b.All(), nil)
	n0 := b.Neighbors(v0)
	s := b.TrimBelow(n0, v0)
	v1 := b.BeginLoop(s, nil)
	n1 := b.Neighbors(v1)
	c := b.Intersect(n0, n1)
	v2 := b.BeginLoop(b.TrimBelow(c, v1), nil)
	b.GlobalAdd(g, b.Size(b.TrimBelow(b.Intersect(c, b.Neighbors(v2)), v2)), 1)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	l := Lower(b.Finish())
	dis, pseudo := l.Disassemble(), l.Pseudocode()
	for _, want := range []string{
		fmt.Sprintf("local.build  S = s%d, rows N⁺(u) ∩ S : u ∈ S\n", s),
		fmt.Sprintf("loop.begin·w v%d in s%d", v1, s),
		fmt.Sprintf("set·w        s%d = N(v%d)  ; row(v%d)\n", n1, v1, v1),
		fmt.Sprintf("set·w        s%d = s%d ∩ s%d : x > v%d", c, n0, n1, v1),
		"count·w",
		fmt.Sprintf("set          s%d = s%d ∩ {x > v%d}  ; = N⁺(v%d)\n", s, n0, v0, v0),
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly lacks %q:\n%s", want, dis)
		}
	}
	for _, want := range []string{
		fmt.Sprintf("s%d = s%d ∩ {x > v%d}  # local S, rows N⁺(u) ∩ S\n", s, n0, v0),
		fmt.Sprintf("for v%d in s%d {  # over bits\n", v1, s),
		fmt.Sprintf("s%d = N(v%d)  # row(v%d)\n", n1, v1, v1),
		fmt.Sprintf(": x > v%d  # words\n", v1),
	} {
		if !strings.Contains(pseudo, want) {
			t.Errorf("pseudo-code lacks %q:\n%s", want, pseudo)
		}
	}
	if plain := Print(l.Prog); strings.Contains(plain, "#") {
		t.Errorf("Print annotates the local region:\n%s", plain)
	}
}
