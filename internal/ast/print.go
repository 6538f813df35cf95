package ast

import (
	"fmt"
	"strings"
)

// Print renders a program as indented pseudo-code, the form the paper
// uses in its figures. It is used by the experiments' plan comparisons
// and golden tests; Explain and the slow-query log print
// Lowered.Pseudocode.
func Print(p *Program) string { return printProgram(p, nil) }

// Pseudocode renders the lowered form's program as Print does, with
// each intersection the clean-up pass windowed (rule 9) annotated with
// what runs: its window, and the operands read as oriented neighbor
// lists, as in `s4 = s1 ∩ s3  # runs as s1 ∩ N⁺(v1) : x > v1`. A local
// region (local.go) marks its set S (`# local S, rows N⁺(u) ∩ S`), the
// subsets of S it holds as word masks (`# words`), the neighbor sets it
// reads as row masks (`# row(v1)`) and the loops that iterate set bits
// (`# over bits`). The rest is the AST the cost model priced; the
// disassembly shows what the clean-up pass deleted.
func (l *Lowered) Pseudocode() string {
	windowed := map[int]*Instr{}
	builds := map[int]*Instr{}
	bits := map[int]bool{} // variables bound by loops over set bits
	for i := range l.Code {
		switch ins := &l.Code[i]; {
		case windowable(ins) && (ins.WinLo >= 0 || ins.WinHi >= 0):
			windowed[int(ins.Dst)] = ins
		case ins.Op == ILocalBuild:
			builds[int(ins.A)] = ins
		case ins.Op == ILoopBegin && ins.Flags&FlagLocal != 0:
			bits[int(ins.Dst)] = true
		}
	}
	local := func(r int) LocalKind {
		if r < len(l.Local) {
			return l.Local[r]
		}
		return LocalNone
	}
	return printProgram(l.Prog, func(n *Node) string {
		if n.Kind == KLoop {
			if bits[n.Var] {
				return "  # over bits"
			}
			return ""
		}
		note := ""
		if ins, ok := windowed[n.Dst]; ok {
			note = fmt.Sprintf("  # runs as %s ∩ %s%s", orientedOperand(ins.A, ins.NbrA, ins.WinLo, ins.WinHi),
				orientedOperand(ins.B, ins.NbrB, ins.WinLo, ins.WinHi), windowString(ins.WinLo, ins.WinHi))
		}
		switch k := local(n.Dst); {
		case builds[n.Dst] != nil:
			row := "N(u)"
			if builds[n.Dst].Imm != 0 {
				row = "N⁺(u)"
			}
			note += fmt.Sprintf("  # local S, rows %s ∩ S", row)
		case k == LocalMask:
			note += "  # words"
		case k == LocalRow:
			note += fmt.Sprintf("  # row(v%d)", n.V)
		}
		return note
	})
}

// orientedOperand renders set operand r of a windowed instruction: as
// N⁺(v)/N⁻(v) when it is the neighbor list of a window bound's own
// variable v (nbr), which the engine slices in O(1), as its register
// otherwise.
func orientedOperand(r, nbr, lo, hi int32) string {
	switch {
	case lo >= 0 && nbr == lo:
		return fmt.Sprintf("N⁺(v%d)", nbr)
	case hi >= 0 && nbr == hi:
		return fmt.Sprintf("N⁻(v%d)", nbr)
	}
	return fmt.Sprintf("s%d", r)
}

// windowString renders a window's bounds, " : x > vlo : x < vhi".
func windowString(lo, hi int32) string {
	s := ""
	if lo >= 0 {
		s += fmt.Sprintf(" : x > v%d", lo)
	}
	if hi >= 0 {
		s += fmt.Sprintf(" : x < v%d", hi)
	}
	return s
}

// printProgram renders p; note, when non-nil, returns a suffix for a
// set def's or a loop's line.
func printProgram(p *Program, note func(*Node) string) string {
	var sb strings.Builder
	var rec func(n *Node, indent int)
	ind := func(k int) string { return strings.Repeat("  ", k) }
	rec = func(n *Node, indent int) {
		switch n.Kind {
		case KRoot:
			for _, c := range n.Body {
				rec(c, indent)
			}
			return
		case KLoop:
			fmt.Fprintf(&sb, "%sfor v%d in s%d {", ind(indent), n.Var, n.Over)
			if n.Meta != nil && n.Meta.PrefixCode != "" {
				fmt.Fprintf(&sb, "  # prefix %s", shortCode(string(n.Meta.PrefixCode)))
			}
			if note != nil {
				sb.WriteString(note(n))
			}
			sb.WriteByte('\n')
			for _, c := range n.Body {
				rec(c, indent+1)
			}
			fmt.Fprintf(&sb, "%s}\n", ind(indent))
			return
		case KSetDef:
			suffix := ""
			if note != nil {
				suffix = note(n)
			}
			fmt.Fprintf(&sb, "%ss%d = %s%s\n", ind(indent), n.Dst, setOpString(n), suffix)
		case KScalarDef:
			fmt.Fprintf(&sb, "%sx%d = %s\n", ind(indent), n.Dst, scalarOpString(n))
		case KScalarReset:
			fmt.Fprintf(&sb, "%sx%d := %d\n", ind(indent), n.Dst, n.Imm)
		case KScalarAccum:
			if n.Imm == 1 {
				fmt.Fprintf(&sb, "%sx%d += x%d\n", ind(indent), n.Dst, n.SA)
			} else {
				fmt.Fprintf(&sb, "%sx%d += %d*x%d\n", ind(indent), n.Dst, n.Imm, n.SA)
			}
		case KGlobalAdd:
			if n.Imm == 1 {
				fmt.Fprintf(&sb, "%sg%d += x%d\n", ind(indent), n.Dst, n.SA)
			} else {
				fmt.Fprintf(&sb, "%sg%d += %d*x%d\n", ind(indent), n.Dst, n.Imm, n.SA)
			}
		case KHashClear:
			fmt.Fprintf(&sb, "%sclear(h%d)\n", ind(indent), n.Table)
		case KHashInc:
			fmt.Fprintf(&sb, "%sh%d[%s] += %d\n", ind(indent), n.Table, varList(n.Keys), n.Imm)
		case KHashGet:
			fmt.Fprintf(&sb, "%sx%d = h%d[%s]\n", ind(indent), n.Dst, n.Table, varList(n.Keys))
		case KCondPos:
			fmt.Fprintf(&sb, "%sif x%d > 0 {\n", ind(indent), n.SA)
			for _, c := range n.Body {
				rec(c, indent+1)
			}
			fmt.Fprintf(&sb, "%s}\n", ind(indent))
			return
		case KEmit:
			fmt.Fprintf(&sb, "%semit(sub=%d, [%s], count=x%d)\n", ind(indent), n.Sub, varList(n.Keys), n.SA)
		}
	}
	rec(p.Root, 0)
	return sb.String()
}

func shortCode(s string) string {
	if len(s) > 24 {
		return s[:24] + "…"
	}
	return s
}

func varList(vars []int) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("v%d", v)
	}
	return strings.Join(parts, ",")
}

func setOpString(n *Node) string {
	switch n.Op {
	case OpAll:
		return "V"
	case OpNeighbors:
		return fmt.Sprintf("N(v%d)", n.V)
	case OpIntersect:
		return fmt.Sprintf("s%d ∩ s%d", n.A, n.B)
	case OpSubtract:
		return fmt.Sprintf("s%d − s%d", n.A, n.B)
	case OpRemove:
		return fmt.Sprintf("s%d − {v%d}", n.A, n.V)
	case OpTrimAbove:
		return fmt.Sprintf("s%d ∩ {x < v%d}", n.A, n.V)
	case OpTrimBelow:
		return fmt.Sprintf("s%d ∩ {x > v%d}", n.A, n.V)
	case OpCopy:
		return fmt.Sprintf("s%d", n.A)
	case OpFilterLabel:
		return fmt.Sprintf("s%d ∩ {label=%d}", n.A, n.Imm)
	case OpFilterLabelOfVar:
		return fmt.Sprintf("s%d ∩ {label=label(v%d)}", n.A, n.V)
	case OpFilterLabelNotOfVar:
		return fmt.Sprintf("s%d ∩ {label≠label(v%d)}", n.A, n.V)
	}
	return "?"
}

func scalarOpString(n *Node) string {
	switch n.SOp {
	case SSize:
		return fmt.Sprintf("|s%d|", n.A)
	case SConst:
		return fmt.Sprintf("%d", n.Imm)
	case SMul:
		return fmt.Sprintf("x%d * x%d", n.SA, n.SB)
	case SDiv:
		return fmt.Sprintf("x%d / x%d", n.SA, n.SB)
	case SSub:
		return fmt.Sprintf("x%d - x%d", n.SA, n.SB)
	case SAdd:
		return fmt.Sprintf("x%d + x%d", n.SA, n.SB)
	case SCountAbove:
		return fmt.Sprintf("|s%d ∩ {x > v%d}|", n.A, n.V)
	case SCountBelow:
		return fmt.Sprintf("|s%d ∩ {x < v%d}|", n.A, n.V)
	}
	return "?"
}

// Stats summarizes a program for cost accounting and tests.
type Stats struct {
	Loops      int
	SetDefs    int
	ScalarDefs int
	MaxDepth   int
	Emits      int
	HashOps    int
}

// Summarize computes node statistics.
func Summarize(p *Program) Stats {
	var st Stats
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		switch n.Kind {
		case KLoop:
			st.Loops++
			if depth+1 > st.MaxDepth {
				st.MaxDepth = depth + 1
			}
			depth++
		case KSetDef:
			st.SetDefs++
		case KScalarDef:
			st.ScalarDefs++
		case KEmit:
			st.Emits++
		case KHashClear, KHashInc, KHashGet:
			st.HashOps++
		}
		for _, c := range n.Body {
			rec(c, depth)
		}
	}
	rec(p.Root, 0)
	return st
}
