package ast

import "sync"

// Builder constructs well-formed programs with automatic register
// allocation. The front-end (internal/core) uses it to generate naive
// ASTs; Optimize then applies the middle-end passes.
type Builder struct {
	prog  *Program
	stack []*Node // enclosing bodies: root, then open loops/conds
	// rec and free: the recycler this builder draws its nodes from, and
	// the free nodes it took from it (returned by Finish).
	rec  *Recycler
	free []*Node
}

// NewBuilder starts a program. numPinned vertex variables are preloaded
// by the runtime (used by materialization and rooted enumeration); they
// occupy variable IDs [0, numPinned).
func NewBuilder(numPinned int) *Builder { return NewBuilderFrom(numPinned, nil) }

// NewBuilderFrom is NewBuilder drawing its nodes from r's free nodes
// before it allocates new ones; r may be nil. Finish hands the nodes it
// did not use back to r.
func NewBuilderFrom(numPinned int, r *Recycler) *Builder {
	b := &Builder{rec: r}
	if r != nil {
		r.mu.Lock()
		b.free, r.free = r.free, nil
		r.mu.Unlock()
	}
	root := b.node()
	root.Kind = KRoot
	b.prog = &Program{Root: root, NumVars: numPinned, NumPinned: numPinned}
	b.stack = []*Node{root}
	return b
}

// maxFree bounds a recycler's free nodes: free nodes are live heap the
// garbage collector scans on every cycle, so a recycler keeps about what
// one search builds between two of its drops.
const maxFree = 2048

// Recycler holds the nodes of programs nobody reads any more, for later
// builders to reuse. The algorithm search releases every candidate it
// drops, so most candidates are built from their predecessors' nodes
// instead of fresh allocations. Safe for concurrent use.
type Recycler struct {
	mu   sync.Mutex
	free []*Node
}

// Release hands every node of p to r; a nil r drops them. p, and every
// slice or pointer taken from its nodes, must not be read afterwards.
func (r *Recycler) Release(p *Program) {
	if r == nil {
		return
	}
	r.mu.Lock()
	Walk(p.Root, func(n *Node) {
		if len(r.free) < maxFree {
			r.free = append(r.free, n)
		}
	})
	r.mu.Unlock()
}

// node returns a zeroed node, recycled when the builder holds a free
// one.
func (b *Builder) node() *Node {
	k := len(b.free)
	if k == 0 {
		return new(Node)
	}
	n := b.free[k-1]
	b.free = b.free[:k-1]
	*n = Node{}
	return n
}

func (b *Builder) top() *Node { return b.stack[len(b.stack)-1] }

func (b *Builder) push(n *Node) {
	t := b.top()
	t.Body = append(t.Body, n)
}

func (b *Builder) newSet() int {
	b.prog.NumSets++
	return b.prog.NumSets - 1
}

func (b *Builder) newScalar() int {
	b.prog.NumScalars++
	return b.prog.NumScalars - 1
}

// NewGlobal allocates a global accumulator and returns its index.
func (b *Builder) NewGlobal() int {
	b.prog.NumGlobals++
	return b.prog.NumGlobals - 1
}

// NewTable allocates a hash table and returns its index.
func (b *Builder) NewTable() int {
	b.prog.NumTables++
	b.prog.TableWidths = append(b.prog.TableWidths, 0)
	return b.prog.NumTables - 1
}

// setTableWidth records (and checks) the key width of a table.
func (b *Builder) setTableWidth(t, width int) {
	if w := b.prog.TableWidths[t]; w != 0 && w != width {
		panic("ast: inconsistent key width for hash table")
	}
	b.prog.TableWidths[t] = width
}

// --- set definitions (pure, SSA) ---

func (b *Builder) setDef(op SetOp, a, bb, v int, imm int64) int {
	dst := b.newSet()
	n := b.node()
	n.Kind, n.Dst, n.Op, n.A, n.B, n.V, n.Imm = KSetDef, dst, op, a, bb, v, imm
	b.push(n)
	return dst
}

// All defines the full vertex set V.
func (b *Builder) All() int { return b.setDef(OpAll, 0, 0, 0, 0) }

// Neighbors defines N(v).
func (b *Builder) Neighbors(v int) int { return b.setDef(OpNeighbors, 0, 0, v, 0) }

// Intersect defines a ∩ c.
func (b *Builder) Intersect(a, c int) int { return b.setDef(OpIntersect, a, c, 0, 0) }

// Subtract defines a − c.
func (b *Builder) Subtract(a, c int) int { return b.setDef(OpSubtract, a, c, 0, 0) }

// Remove defines a − {v}.
func (b *Builder) Remove(a, v int) int { return b.setDef(OpRemove, a, 0, v, 0) }

// TrimAbove defines {x ∈ a : x < v}.
func (b *Builder) TrimAbove(a, v int) int { return b.setDef(OpTrimAbove, a, 0, v, 0) }

// TrimBelow defines {x ∈ a : x > v}.
func (b *Builder) TrimBelow(a, v int) int { return b.setDef(OpTrimBelow, a, 0, v, 0) }

// FilterLabel defines {x ∈ a : label(x) = label}.
func (b *Builder) FilterLabel(a int, label uint32) int {
	return b.setDef(OpFilterLabel, a, 0, 0, int64(label))
}

// FilterLabelOfVar defines {x ∈ a : label(x) = label(v)}.
func (b *Builder) FilterLabelOfVar(a, v int) int {
	return b.setDef(OpFilterLabelOfVar, a, 0, v, 0)
}

// FilterLabelNotOfVar defines {x ∈ a : label(x) ≠ label(v)}.
func (b *Builder) FilterLabelNotOfVar(a, v int) int {
	return b.setDef(OpFilterLabelNotOfVar, a, 0, v, 0)
}

// --- scalar definitions (pure, SSA) ---

func (b *Builder) scalarDef(op ScalarOp, a, sa, sb, v int, imm int64) int {
	dst := b.newScalar()
	n := b.node()
	n.Kind, n.Dst, n.SOp, n.A, n.SA, n.SB, n.V, n.Imm = KScalarDef, dst, op, a, sa, sb, v, imm
	b.push(n)
	return dst
}

// Size defines |a|.
func (b *Builder) Size(a int) int { return b.scalarDef(SSize, a, 0, 0, 0, 0) }

// Const defines the constant c.
func (b *Builder) Const(c int64) int { return b.scalarDef(SConst, 0, 0, 0, 0, c) }

// Mul defines x*y.
func (b *Builder) Mul(x, y int) int { return b.scalarDef(SMul, 0, x, y, 0, 0) }

// Div defines x/y.
func (b *Builder) Div(x, y int) int { return b.scalarDef(SDiv, 0, x, y, 0, 0) }

// Sub defines x−y.
func (b *Builder) Sub(x, y int) int { return b.scalarDef(SSub, 0, x, y, 0, 0) }

// Add defines x+y.
func (b *Builder) Add(x, y int) int { return b.scalarDef(SAdd, 0, x, y, 0, 0) }

// CountAbove defines |{x ∈ a : x > v}|.
func (b *Builder) CountAbove(a, v int) int { return b.scalarDef(SCountAbove, a, 0, 0, v, 0) }

// CountBelow defines |{x ∈ a : x < v}|.
func (b *Builder) CountBelow(a, v int) int { return b.scalarDef(SCountBelow, a, 0, 0, v, 0) }

// --- volatile scalars ---

// NewAccumulator allocates a volatile scalar register.
func (b *Builder) NewAccumulator() int { return b.newScalar() }

// Reset sets the volatile scalar dst to imm.
func (b *Builder) Reset(dst int, imm int64) {
	n := b.node()
	n.Kind, n.Dst, n.Imm = KScalarReset, dst, imm
	b.push(n)
}

// Accum adds coeff*src into the volatile scalar dst.
func (b *Builder) Accum(dst, src int, coeff int64) {
	n := b.node()
	n.Kind, n.Dst, n.SA, n.Imm = KScalarAccum, dst, src, coeff
	b.push(n)
}

// GlobalAdd adds coeff*src into global g.
func (b *Builder) GlobalAdd(g, src int, coeff int64) {
	n := b.node()
	n.Kind, n.Dst, n.SA, n.Imm = KGlobalAdd, g, src, coeff
	b.push(n)
}

// --- hash tables ---

// HashClear clears table t (O(1) epoch bump at runtime).
func (b *Builder) HashClear(t int) {
	n := b.node()
	n.Kind, n.Table = KHashClear, t
	b.push(n)
}

// HashInc adds imm to t[keys].
func (b *Builder) HashInc(t int, keys []int, imm int64) {
	b.trackKey(keys)
	b.setTableWidth(t, len(keys))
	n := b.node()
	n.Kind, n.Table, n.Keys, n.Imm = KHashInc, t, append([]int(nil), keys...), imm
	b.push(n)
}

// HashGet defines a fresh volatile scalar holding t[keys] (0 if absent).
func (b *Builder) HashGet(t int, keys []int) int {
	b.trackKey(keys)
	b.setTableWidth(t, len(keys))
	dst := b.newScalar()
	n := b.node()
	n.Kind, n.Dst, n.Table, n.Keys = KHashGet, dst, t, append([]int(nil), keys...)
	b.push(n)
	return dst
}

func (b *Builder) trackKey(keys []int) {
	if len(keys) > b.prog.MaxKey {
		b.prog.MaxKey = len(keys)
	}
}

// --- control flow ---

// BeginLoop opens a loop over set register `over`, returning the fresh
// vertex variable it binds. meta may be nil.
func (b *Builder) BeginLoop(over int, meta *LoopMeta) int {
	v := b.prog.NumVars
	b.prog.NumVars++
	n := b.node()
	n.Kind, n.Var, n.Over, n.Meta = KLoop, v, over, meta
	b.push(n)
	b.stack = append(b.stack, n)
	return v
}

// EndLoop closes the innermost open loop.
func (b *Builder) EndLoop() {
	if len(b.stack) <= 1 || b.top().Kind != KLoop {
		panic("ast: unbalanced EndLoop")
	}
	b.stack = b.stack[:len(b.stack)-1]
}

// BeginCond opens an `if scalar > 0` block.
func (b *Builder) BeginCond(scalar int) {
	n := b.node()
	n.Kind, n.SA = KCondPos, scalar
	b.push(n)
	b.stack = append(b.stack, n)
}

// EndCond closes the innermost open conditional.
func (b *Builder) EndCond() {
	if len(b.stack) <= 1 || b.top().Kind != KCondPos {
		panic("ast: unbalanced EndCond")
	}
	b.stack = b.stack[:len(b.stack)-1]
}

// Emit calls the partial-embedding consumer.
func (b *Builder) Emit(sub int, keys []int, countScalar int) {
	b.trackKey(keys)
	n := b.node()
	n.Kind, n.Sub, n.Keys, n.SA = KEmit, sub, append([]int(nil), keys...), countScalar
	b.push(n)
}

// Finish returns the completed program, and the free nodes the builder
// did not use to its recycler.
func (b *Builder) Finish() *Program {
	if len(b.stack) != 1 {
		panic("ast: Finish with open scopes")
	}
	if b.rec != nil {
		// The free list goes back with its capacity, even when empty, so
		// the next Release appends without growing it.
		b.rec.mu.Lock()
		if len(b.rec.free) == 0 {
			b.rec.free = b.free
		} else {
			b.rec.free = append(b.rec.free, b.free...)
		}
		b.rec.mu.Unlock()
		b.free = nil
	}
	return b.prog
}
