// Package ast defines DecoMine's intermediate representation (paper §7.1)
// and the middle-end optimizations that run on it: loop-invariant code
// motion, common-subexpression elimination (§7.1 "conventional AST
// optimizations") and dead-code elimination. Pattern-aware loop rewriting
// (§7.2) is a front-end generation strategy (see internal/core) whose
// benefit is realized by CSE across compensation copies.
//
// The IR is a structured tree of nodes over three register files —
// vertex variables, vertex-set registers and int64 scalar registers —
// plus global accumulators and epoch-validated hash tables. Set and pure
// scalar definitions are SSA (each def creates a fresh register), which
// makes CSE and LICM simple; accumulators are explicitly volatile
// (Reset/Accum kinds) and are never moved or merged.
package ast

import (
	"fmt"

	"decomine/internal/pattern"
)

// Kind discriminates IR nodes.
type Kind uint8

const (
	KRoot Kind = iota
	// KLoop iterates vertex variable Var over set register Over,
	// executing Body once per element.
	KLoop
	// KSetDef defines set register Dst from a SetOp (pure, SSA).
	KSetDef
	// KScalarDef defines scalar register Dst from a ScalarOp (pure, SSA).
	KScalarDef
	// KScalarReset sets the volatile scalar Dst to Imm.
	KScalarReset
	// KScalarAccum adds scalar SA (times Imm) into the volatile scalar Dst.
	KScalarAccum
	// KGlobalAdd adds scalar SA times Imm into global accumulator Dst.
	KGlobalAdd
	// KHashClear clears hash table Table (O(1) epoch bump).
	KHashClear
	// KHashInc adds Imm to table entry keyed by the vertex variables Keys.
	KHashInc
	// KHashGet defines volatile scalar Dst as the value at Keys (0 if absent).
	KHashGet
	// KCondPos executes Body iff scalar SA > 0.
	KCondPos
	// KEmit calls the partial-embedding consumer with subpattern Sub,
	// the vertex variables Keys, and count scalar SA.
	KEmit
)

// SetOp enumerates vertex-set operations.
type SetOp uint8

const (
	// OpAll is the full vertex set of the input graph.
	OpAll SetOp = iota
	// OpNeighbors is N(v) for vertex variable V.
	OpNeighbors
	// OpIntersect is A ∩ B (commutative).
	OpIntersect
	// OpSubtract is A \ B.
	OpSubtract
	// OpRemove is A \ {V} for vertex variable V.
	OpRemove
	// OpTrimAbove is {x ∈ A : x < V} (upper-bound trimming).
	OpTrimAbove
	// OpTrimBelow is {x ∈ A : x > V} (lower-bound trimming).
	OpTrimBelow
	// OpCopy is a copy assignment of A.
	OpCopy
	// OpFilterLabel keeps the elements of A whose graph label equals Imm.
	OpFilterLabel
	// OpFilterLabelOfVar keeps elements of A whose label equals the
	// label of the graph vertex bound to variable V (all-same label
	// constraints, §7.5).
	OpFilterLabelOfVar
	// OpFilterLabelNotOfVar keeps elements of A whose label differs from
	// the label of the vertex bound to V (all-different constraints).
	OpFilterLabelNotOfVar
	// OpAuxRow aliases the destination register to auxiliary table A's
	// row for the vertex bound to variable V (empty when the vertex has
	// no row). Produced only by the aux-materialization lowering pass;
	// it never appears in program trees.
	OpAuxRow
)

// ScalarOp enumerates pure scalar operations.
type ScalarOp uint8

const (
	// SSize is |A| for set register A.
	SSize ScalarOp = iota
	// SConst is the constant Imm.
	SConst
	// SMul is SA * SB.
	SMul
	// SDiv is SA / SB (exact by construction in Algorithm 1).
	SDiv
	// SSub is SA - SB.
	SSub
	// SAdd is SA + SB.
	SAdd
	// SCountAbove is |{x ∈ A : x > V}|.
	SCountAbove
	// SCountBelow is |{x ∈ A : x < V}|.
	SCountBelow
)

// LoopMeta carries the semantic information cost models need: the pattern
// prefix matched once this loop's variable is bound.
type LoopMeta struct {
	// Prefix is the induced subpattern on the bound pattern vertices
	// (including this loop's), or nil for loops that are not
	// pattern-vertex loops.
	Prefix *pattern.Pattern
	// PrefixCode is the canonical code of Prefix ("" if unknown).
	PrefixCode pattern.Code
	// Constraints is the number of neighbor-intersection constraints
	// defining this loop's candidate set (for the random-graph models).
	Constraints int
	// Subtractions is the number of neighbor-subtraction constraints.
	Subtractions int
	// Trimmed reports whether a symmetry-breaking trim applies.
	Trimmed bool
}

// Node is one IR node. Field use depends on Kind; unused fields are zero.
// Registers are indices into the per-thread frames allocated by the
// engine from the Program header.
type Node struct {
	Kind Kind

	Var  int // KLoop: vertex variable bound by the loop
	Over int // KLoop: set register iterated
	Body []*Node

	Dst int   // defined register (set, scalar, global or hash-get dst)
	Op  SetOp // KSetDef
	A   int   // set operand
	B   int   // set operand
	V   int   // vertex-variable operand

	SOp ScalarOp // KScalarDef
	SA  int      // scalar operand
	SB  int      // scalar operand
	Imm int64    // constant / coefficient

	Table int   // hash-table register
	Keys  []int // vertex variables forming a hash key or emitted embedding
	Sub   int   // KEmit: subpattern index

	Meta *LoopMeta // KLoop only
}

// Program is a complete compiled unit: the root body plus register-file
// sizes the engine uses to allocate frames.
type Program struct {
	Root       *Node
	NumVars    int // vertex variables (loop vars + pinned prefix vars)
	NumSets    int
	NumScalars int
	NumGlobals int
	NumTables  int
	// NumPinned vertex variables [0, NumPinned) are preloaded by the
	// caller rather than bound by loops (used by materialization).
	NumPinned int
	// MaxKey is the largest len(Keys) across hash ops and emissions
	// (sizes the engine's key scratch buffer).
	MaxKey int
	// TableWidths[t] is the fixed key width of hash table t.
	TableWidths []int
}

// Walk invokes fn for every node in pre-order.
func Walk(n *Node, fn func(*Node)) {
	fn(n)
	for _, c := range n.Body {
		Walk(c, fn)
	}
}

// Validate performs structural sanity checks used by tests and the
// compiler's debug mode.
func (p *Program) Validate() error {
	if p.Root == nil || p.Root.Kind != KRoot {
		return fmt.Errorf("ast: program root missing")
	}
	var err error
	definedSets := make([]bool, p.NumSets)
	check := func(cond bool, format string, args ...interface{}) {
		if err == nil && !cond {
			err = fmt.Errorf("ast: "+format, args...)
		}
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.Kind {
		case KLoop:
			check(n.Var >= 0 && n.Var < p.NumVars, "loop var %d out of range", n.Var)
			check(n.Over >= 0 && n.Over < p.NumSets, "loop set %d out of range", n.Over)
			check(definedSets[n.Over], "loop over undefined set r%d", n.Over)
		case KSetDef:
			check(n.Dst >= 0 && n.Dst < p.NumSets, "set dst %d out of range", n.Dst)
			switch n.Op {
			case OpAll:
			case OpNeighbors:
				check(n.V >= 0 && n.V < p.NumVars, "neighbors var %d", n.V)
			case OpIntersect, OpSubtract:
				check(definedSets[n.A] && definedSets[n.B], "binary setop on undefined regs r%d r%d", n.A, n.B)
			case OpRemove, OpTrimAbove, OpTrimBelow:
				check(definedSets[n.A], "unary setop on undefined reg r%d", n.A)
				check(n.V >= 0 && n.V < p.NumVars, "setop var %d", n.V)
			case OpCopy, OpFilterLabel:
				check(definedSets[n.A], "copy/filter of undefined reg r%d", n.A)
			case OpFilterLabelOfVar, OpFilterLabelNotOfVar:
				check(definedSets[n.A], "label filter of undefined reg r%d", n.A)
				check(n.V >= 0 && n.V < p.NumVars, "label filter var %d", n.V)
			}
			definedSets[n.Dst] = true
		case KScalarDef, KScalarReset, KScalarAccum, KHashGet:
			check(n.Dst >= 0 && n.Dst < p.NumScalars, "scalar dst %d out of range", n.Dst)
		case KGlobalAdd:
			check(n.Dst >= 0 && n.Dst < p.NumGlobals, "global %d out of range", n.Dst)
		case KHashClear, KHashInc:
			check(n.Table >= 0 && n.Table < p.NumTables, "table %d out of range", n.Table)
		}
		for _, c := range n.Body {
			walk(c)
		}
	}
	walk(p.Root)
	return err
}
