package ast

import "sync"

// Middle-end optimization passes (paper §7.1, Figure 13b). All passes
// preserve counts: they move or merge only pure SSA definitions and never
// touch volatile accumulators, hash operations, emissions or loops.

// Optimize runs LICM, CSE and DCE to fixpoint on the program.
func Optimize(p *Program) {
	sc := workspaces.Get().(*workspace)
	defer workspaces.Put(sc)
	for i := 0; i < 8; i++ { // passes interact; a few rounds reach fixpoint
		// LICM only moves nodes, so CSE sees the volatile registers it saw.
		vol := volatileScalars(p, sc)
		moved := licm(p, sc, vol)
		merged := cse(p, sc, vol)
		removed := dce(p, sc)
		if moved+merged+removed == 0 {
			return
		}
	}
}

// workspaces holds the passes' working storage between Optimize calls.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// workspace is the working storage of the middle-end passes, reused
// across passes and programs: every buffer is cleared before each use.
type workspace struct {
	vol                   []bool
	usedSet, usedScalar   []bool
	setAlias, scalarAlias []int
	setDepth, scalarDepth []int
	varDepth              []int
	avail                 []cseDef
	bodies                [][]*Node // LICM's per-level body buffers
}

// bools returns buf resized to n falses.
func bools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// ints returns buf resized to n zeros.
func ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// filtered ends an in-place rewrite of body whose result is out, on
// body's array: the tail out no longer covers is cleared, so the array
// holds no pointer to a node that left it.
func filtered(body, out []*Node) []*Node {
	if len(out) < len(body) {
		clear(body[len(out):])
	}
	return out
}

// pure reports whether a node is a pure SSA definition that can be moved
// or merged.
func pure(n *Node) bool {
	return n.Kind == KSetDef || n.Kind == KScalarDef
}

// volatileScalars returns the set of scalar registers written by volatile
// nodes (resets, accumulators, hash gets). Pure scalar defs reading them
// observe time-varying values, so LICM must not move them and CSE must
// not merge them.
func volatileScalars(p *Program, sc *workspace) []bool {
	vol := bools(&sc.vol, p.NumScalars)
	Walk(p.Root, func(n *Node) {
		switch n.Kind {
		case KScalarReset, KScalarAccum, KHashGet:
			vol[n.Dst] = true
		}
	})
	// Propagate: a pure def reading a volatile scalar is itself volatile
	// for downstream readers.
	for changed := true; changed; {
		changed = false
		Walk(p.Root, func(n *Node) {
			if n.Kind != KScalarDef {
				return
			}
			switch n.SOp {
			case SMul, SDiv, SSub, SAdd:
				if (vol[n.SA] || vol[n.SB]) && !vol[n.Dst] {
					vol[n.Dst] = true
					changed = true
				}
			}
		})
	}
	return vol
}

// readsVolatile reports whether a pure scalar def reads a volatile register.
func readsVolatile(n *Node, vol []bool) bool {
	if n.Kind != KScalarDef {
		return false
	}
	switch n.SOp {
	case SMul, SDiv, SSub, SAdd:
		return vol[n.SA] || vol[n.SB]
	}
	return false
}

// LICM hoists pure definitions out of loops when their operands are
// independent of the loop. Returns the number of hoisted nodes.
func LICM(p *Program) int {
	sc := &workspace{}
	return licm(p, sc, volatileScalars(p, sc))
}

// licm is LICM given the program's volatile scalars.
func licm(p *Program, sc *workspace, vol []bool) int {
	hoisted := 0
	// defDepth maps each register to the loop depth at which it is
	// defined; loop vars get the loop's depth. Pinned vars have depth 0.
	setDepth := ints(&sc.setDepth, p.NumSets)
	scalarDepth := ints(&sc.scalarDepth, p.NumScalars)
	varDepth := ints(&sc.varDepth, p.NumVars)

	// depOf returns the minimal depth a node could live at.
	depOf := func(n *Node) int {
		d := 0
		maxi := func(x int) {
			if x > d {
				d = x
			}
		}
		switch n.Kind {
		case KSetDef:
			switch n.Op {
			case OpAll:
			case OpNeighbors:
				maxi(varDepth[n.V])
			case OpIntersect, OpSubtract:
				maxi(setDepth[n.A])
				maxi(setDepth[n.B])
			case OpRemove, OpTrimAbove, OpTrimBelow:
				maxi(setDepth[n.A])
				maxi(varDepth[n.V])
			case OpCopy, OpFilterLabel:
				maxi(setDepth[n.A])
			case OpFilterLabelOfVar, OpFilterLabelNotOfVar:
				maxi(setDepth[n.A])
				maxi(varDepth[n.V])
			}
		case KScalarDef:
			switch n.SOp {
			case SSize:
				maxi(setDepth[n.A])
			case SConst:
			case SMul, SDiv, SSub, SAdd:
				maxi(scalarDepth[n.SA])
				maxi(scalarDepth[n.SB])
			case SCountAbove, SCountBelow:
				maxi(setDepth[n.A])
				maxi(varDepth[n.V])
			}
		}
		return d
	}

	// rec rewrites a body at the given depth, returning the new body and
	// the list of nodes to hoist to shallower depths (paired with their
	// target depth).
	type hoist struct {
		n     *Node
		depth int
	}
	// A body is rebuilt in a per-level buffer, then copied back
	// over its own array, which grows only when hoisted nodes land in it.
	level := 0
	var rec func(body []*Node, depth int) ([]*Node, []hoist)
	rec = func(body []*Node, depth int) ([]*Node, []hoist) {
		if level == len(sc.bodies) {
			sc.bodies = append(sc.bodies, nil)
		}
		out := sc.bodies[level][:0]
		level++
		defer func() {
			level--
			clear(out)
			sc.bodies[level] = out[:0]
		}()
		var up []hoist
		for _, n := range body {
			if n.Kind == KLoop {
				varDepth[n.Var] = depth + 1
				newBody, inner := rec(n.Body, depth+1)
				n.Body = newBody
				// Insert hoisted nodes that land at this depth before the
				// loop; pass shallower ones upward.
				for _, h := range inner {
					if h.depth >= depth+1 {
						// Cannot actually leave the loop; keep at loop head.
						n.Body = append([]*Node{h.n}, n.Body...)
						continue
					}
					if h.depth == depth {
						out = append(out, h.n)
						registerDepth(h.n, depth, setDepth, scalarDepth)
						hoisted++
					} else {
						up = append(up, h)
					}
				}
				out = append(out, n)
				continue
			}
			if n.Kind == KCondPos {
				newBody, inner := rec(n.Body, depth)
				n.Body = newBody
				for _, h := range inner {
					if h.depth < depth {
						up = append(up, h)
						hoisted++
					} else {
						out = append(out, h.n)
						registerDepth(h.n, depth, setDepth, scalarDepth)
					}
				}
				out = append(out, n)
				continue
			}
			if pure(n) && !readsVolatile(n, vol) {
				d := depOf(n)
				if d < depth {
					// Register the destination at its TARGET depth right
					// away: later defs depending on this one must not
					// hoist above it.
					registerDepth(n, d, setDepth, scalarDepth)
					up = append(up, hoist{n, d})
					continue
				}
				registerDepth(n, depth, setDepth, scalarDepth)
			}
			out = append(out, n)
		}
		if len(out) > cap(body) {
			return append([]*Node(nil), out...), up
		}
		return filtered(body, append(body[:0], out...)), up
	}
	newBody, stray := rec(p.Root.Body, 0)
	// Nodes hoisted out of the root body land at its front.
	for i := len(stray) - 1; i >= 0; i-- {
		newBody = append([]*Node{stray[i].n}, newBody...)
		hoisted++
	}
	p.Root.Body = newBody
	return hoisted
}

func registerDepth(n *Node, depth int, setDepth, scalarDepth []int) {
	switch n.Kind {
	case KSetDef:
		setDepth[n.Dst] = depth
	case KScalarDef:
		scalarDepth[n.Dst] = depth
	}
}

// CSE merges identical pure definitions. A definition is available to all
// later statements in its scope and to nested scopes (structured
// dominance). Commutative operations (set intersection, scalar add/mul)
// canonicalize operand order so PLR compensation copies share work.
// Returns the number of merged definitions.
func CSE(p *Program) int {
	sc := &workspace{}
	return cse(p, sc, volatileScalars(p, sc))
}

// cseKey identifies a pure definition up to register aliasing.
type cseKey struct {
	kind Kind
	op   SetOp
	sop  ScalarOp
	a, b int
	v    int
	imm  int64
}

// cseDef is one definition in CSE's scope stack: its key and its
// canonical dst register.
type cseDef struct {
	k   cseKey
	dst int
}

// cse is CSE given the program's volatile scalars.
func cse(p *Program, sc *workspace, vol []bool) int {
	merged := 0
	setAlias := identity(&sc.setAlias, p.NumSets)
	scalarAlias := identity(&sc.scalarAlias, p.NumScalars)

	keyOf := func(n *Node) cseKey {
		k := cseKey{kind: n.Kind}
		switch n.Kind {
		case KSetDef:
			k.op = n.Op
			switch n.Op {
			case OpAll:
			case OpNeighbors:
				k.v = n.V + 1
			case OpIntersect:
				a, b := setAlias[n.A], setAlias[n.B]
				if a > b {
					a, b = b, a
				}
				k.a, k.b = a+1, b+1
			case OpSubtract:
				k.a, k.b = setAlias[n.A]+1, setAlias[n.B]+1
			case OpRemove, OpTrimAbove, OpTrimBelow:
				k.a, k.v = setAlias[n.A]+1, n.V+1
			case OpCopy:
				k.a = setAlias[n.A] + 1
			case OpFilterLabel:
				k.a, k.imm = setAlias[n.A]+1, n.Imm
			case OpFilterLabelOfVar, OpFilterLabelNotOfVar:
				k.a, k.v = setAlias[n.A]+1, n.V+1
			}
		case KScalarDef:
			k.sop = n.SOp
			switch n.SOp {
			case SSize:
				k.a = setAlias[n.A] + 1
			case SConst:
				k.imm = n.Imm
			case SMul, SAdd:
				a, b := scalarAlias[n.SA], scalarAlias[n.SB]
				if a > b {
					a, b = b, a
				}
				k.a, k.b = a+1, b+1
			case SDiv, SSub:
				k.a, k.b = scalarAlias[n.SA]+1, scalarAlias[n.SB]+1
			case SCountAbove, SCountBelow:
				k.a, k.v = setAlias[n.A]+1, n.V+1
			}
		}
		return k
	}

	// avail is the scope stack: every definition in scope with its
	// canonical dst register, outermost first. Leaving a scope truncates
	// it back to where the scope began. Scopes hold a few dozen
	// definitions, so a linear scan beats a map per scope.
	var rec func(body []*Node) []*Node
	avail := sc.avail[:0]
	defer func() { sc.avail = avail[:0] }()
	lookup := func(k cseKey) (int, bool) {
		for i := len(avail) - 1; i >= 0; i-- {
			if avail[i].k == k {
				return avail[i].dst, true
			}
		}
		return 0, false
	}
	rewrite := func(n *Node) {
		// Apply aliases to all register operands.
		switch n.Kind {
		case KLoop:
			n.Over = setAlias[n.Over]
		case KSetDef:
			switch n.Op {
			case OpIntersect, OpSubtract:
				n.A, n.B = setAlias[n.A], setAlias[n.B]
			case OpRemove, OpTrimAbove, OpTrimBelow, OpCopy, OpFilterLabel,
				OpFilterLabelOfVar, OpFilterLabelNotOfVar:
				n.A = setAlias[n.A]
			}
		case KScalarDef:
			switch n.SOp {
			case SSize, SCountAbove, SCountBelow:
				n.A = setAlias[n.A]
			case SMul, SDiv, SSub, SAdd:
				n.SA, n.SB = scalarAlias[n.SA], scalarAlias[n.SB]
			}
		case KScalarAccum, KGlobalAdd, KCondPos, KEmit:
			n.SA = scalarAlias[n.SA]
		}
	}
	rec = func(body []*Node) []*Node {
		out := body[:0]
		for _, n := range body {
			rewrite(n)
			if pure(n) && !readsVolatile(n, vol) {
				k := keyOf(n)
				if r, ok := lookup(k); ok {
					if n.Kind == KSetDef {
						setAlias[n.Dst] = r
					} else {
						scalarAlias[n.Dst] = r
					}
					merged++
					continue // drop duplicate def
				}
				avail = append(avail, cseDef{k, n.Dst})
			}
			if n.Kind == KLoop || n.Kind == KCondPos {
				mark := len(avail)
				n.Body = rec(n.Body)
				avail = avail[:mark]
			}
			out = append(out, n)
		}
		return filtered(body, out)
	}
	p.Root.Body = rec(p.Root.Body)
	return merged
}

// identity returns buf resized to the identity map on n registers.
func identity(buf *[]int, n int) []int {
	out := ints(buf, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// DCE removes pure definitions whose results are never used. Returns the
// number of removed nodes.
func DCE(p *Program) int { return dce(p, &workspace{}) }

func dce(p *Program, sc *workspace) int {
	usedSet := bools(&sc.usedSet, p.NumSets)
	usedScalar := bools(&sc.usedScalar, p.NumScalars)
	Walk(p.Root, func(n *Node) {
		switch n.Kind {
		case KLoop:
			usedSet[n.Over] = true
		case KSetDef:
			switch n.Op {
			case OpIntersect, OpSubtract:
				usedSet[n.A] = true
				usedSet[n.B] = true
			case OpRemove, OpTrimAbove, OpTrimBelow, OpCopy, OpFilterLabel,
				OpFilterLabelOfVar, OpFilterLabelNotOfVar:
				usedSet[n.A] = true
			}
		case KScalarDef:
			switch n.SOp {
			case SSize, SCountAbove, SCountBelow:
				usedSet[n.A] = true
			case SMul, SDiv, SSub, SAdd:
				usedScalar[n.SA] = true
				usedScalar[n.SB] = true
			}
		case KScalarAccum, KGlobalAdd, KCondPos, KEmit:
			usedScalar[n.SA] = true
		}
	})
	removed := 0
	var rec func(body []*Node) []*Node
	rec = func(body []*Node) []*Node {
		out := body[:0]
		for _, n := range body {
			if n.Kind == KSetDef && !usedSet[n.Dst] {
				removed++
				continue
			}
			if n.Kind == KScalarDef && !usedScalar[n.Dst] {
				removed++
				continue
			}
			if len(n.Body) > 0 {
				n.Body = rec(n.Body)
			}
			out = append(out, n)
		}
		return filtered(body, out)
	}
	p.Root.Body = rec(p.Root.Body)
	return removed
}
