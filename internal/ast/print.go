package ast

import (
	"fmt"
	"strings"
)

// Print renders a program as indented pseudo-code, the form the paper
// uses in its figures. It is used by Explain, the slow-query log, the
// experiments' plan comparisons and golden tests.
func Print(p *Program) string {
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
			sb.WriteByte('\n')
			for _, c := range n.Body {
				rec(c, indent+1)
			}
			fmt.Fprintf(&sb, "%s}\n", ind(indent))
			return
		case KSetDef:
			fmt.Fprintf(&sb, "%ss%d = %s\n", ind(indent), n.Dst, setOpString(n))
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
