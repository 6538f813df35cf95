package ast

import (
	"fmt"
	"strings"
	"testing"
)

// TestOpcodeTablesCoverAllOpcodes is a static self-check that every
// table keyed by opcode kept pace with the instruction set: adding an
// opcode (as the auxiliary-graph pass did with IAuxBuild) must extend
// the mnemonic table and the disassembler's operand formatter, or this
// test fails before any VM counter misattributes it. The engine's
// per-opcode counter arrays are sized by NumOpcodes at compile time,
// so they are covered by construction once the enum itself is right.
func TestOpcodeTablesCoverAllOpcodes(t *testing.T) {
	if len(opNames) != int(NumOpcodes) {
		t.Fatalf("opNames has %d entries, NumOpcodes is %d", len(opNames), NumOpcodes)
	}
	seen := map[string]OpCode{}
	for op := OpCode(0); op < NumOpcodes; op++ {
		name := op.String()
		if name == "" {
			t.Errorf("opcode %d has an empty mnemonic", op)
		}
		if name == fmt.Sprintf("op%d", int(op)) {
			t.Errorf("opcode %d falls back to the numeric mnemonic", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share mnemonic %q", prev, op, name)
		}
		seen[name] = op
	}
}

// TestDisassemblerFormatsAllOpcodes synthesizes one instruction of
// every opcode and asserts the disassembler renders operands for it —
// the "?" fallback means a new opcode was not taught to operandString.
func TestDisassemblerFormatsAllOpcodes(t *testing.T) {
	l := &Lowered{}
	for op := OpCode(0); op < NumOpcodes; op++ {
		ins := Instr{Op: op, B: -1, V: -1, SA: -1, SB: -1}
		if got := l.operandString(&ins); got == "?" {
			t.Errorf("operandString does not handle opcode %s (%d)", op, op)
		}
	}
	// OpAuxRow is the one ISetDef sub-op with dedicated rendering; pin
	// its shape so aux rows stay readable in plan dumps.
	row := Instr{Op: ISetDef, Set: OpAuxRow, Dst: 7, A: 1, B: -1, V: 3, SA: -1, SB: -1}
	if got := l.operandString(&row); !strings.Contains(got, "a1[v3]") {
		t.Errorf("OpAuxRow rendering lost the table/vertex reference: %q", got)
	}
	// ILocalBuild names its set S, the rows it builds and their window.
	build := Instr{Op: ILocalBuild, A: 2, B: -1, V: 0, SA: -1, SB: -1, WinLo: 0, WinHi: -1, Imm: 1}
	if got := l.operandString(&build); got != "S = s2, rows N⁺(u) ∩ S : u ∈ S : u > v0" {
		t.Errorf("ILocalBuild rendering: %q", got)
	}
}
