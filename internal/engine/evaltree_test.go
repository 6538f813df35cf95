package engine

import (
	"fmt"

	"decomine/internal/ast"
	"decomine/internal/graph"
	"decomine/internal/vset"
)

// evalTree is the AST-level reference the VM tests compare against: a
// sequential recursive evaluator of the optimized AST itself, sharing
// nothing with the lowering pass, the dispatch loop or the scheduler.
// It returns the program's globals; consumer (may be nil for programs
// without KEmit nodes) receives emissions in program order and stops
// the evaluation by returning false.
func evalTree(g *graph.Graph, prog *ast.Program, pins []uint32, consumer Consumer) []int64 {
	f := &treeFrame{
		g:        g,
		vars:     make([]uint32, prog.NumVars),
		sets:     make([][]uint32, prog.NumSets),
		bufs:     make([][]uint32, prog.NumSets),
		scalars:  make([]int64, prog.NumScalars),
		globals:  make([]int64, prog.NumGlobals),
		keyBuf:   make([]uint32, 0, prog.MaxKey+4),
		tables:   make([]*HashTable, prog.NumTables),
		consumer: consumer,
	}
	for i := range f.tables {
		width := 1
		if i < len(prog.TableWidths) && prog.TableWidths[i] > 0 {
			width = prog.TableWidths[i]
		}
		f.tables[i] = NewHashTable(width)
	}
	copy(f.vars, pins)
	f.exec(prog.Root)
	return f.globals
}

// treeFrame is evalTree's register file.
type treeFrame struct {
	g        *graph.Graph
	vars     []uint32
	sets     [][]uint32 // current value per set register
	bufs     [][]uint32 // backing storage per set register
	scalars  []int64
	globals  []int64
	tables   []*HashTable
	keyBuf   []uint32
	consumer Consumer
}

// body interprets a statement list; false means "stop everything".
func (f *treeFrame) body(nodes []*ast.Node) bool {
	for _, c := range nodes {
		if !f.exec(c) {
			return false
		}
	}
	return true
}

// exec interprets one node; false means "stop everything".
func (f *treeFrame) exec(n *ast.Node) bool {
	switch n.Kind {
	case ast.KRoot:
		return f.body(n.Body)
	case ast.KLoop:
		for _, v := range f.sets[n.Over] {
			f.vars[n.Var] = v
			if !f.body(n.Body) {
				return false
			}
		}
	case ast.KSetDef:
		f.evalSet(n)
	case ast.KScalarDef:
		f.scalars[n.Dst] = f.evalScalar(n)
	case ast.KScalarReset:
		f.scalars[n.Dst] = n.Imm
	case ast.KScalarAccum:
		f.scalars[n.Dst] += n.Imm * f.scalars[n.SA]
	case ast.KGlobalAdd:
		f.globals[n.Dst] += n.Imm * f.scalars[n.SA]
	case ast.KHashClear:
		f.tables[n.Table].Clear()
	case ast.KHashInc:
		f.tables[n.Table].Add(f.key(n.Keys), n.Imm)
	case ast.KHashGet:
		f.scalars[n.Dst] = f.tables[n.Table].Get(f.key(n.Keys))
	case ast.KCondPos:
		if f.scalars[n.SA] > 0 {
			return f.body(n.Body)
		}
	case ast.KEmit:
		return f.consumer.Process(n.Sub, f.key(n.Keys), f.scalars[n.SA])
	default:
		panic(fmt.Sprintf("evalTree: unknown node kind %d", n.Kind))
	}
	return true
}

func (f *treeFrame) key(vars []int) []uint32 {
	f.keyBuf = f.keyBuf[:len(vars)]
	for i, v := range vars {
		f.keyBuf[i] = f.vars[v]
	}
	return f.keyBuf
}

func (f *treeFrame) filter(dst, src []uint32, keep func(label uint32) bool) []uint32 {
	dst = dst[:0]
	for _, x := range src {
		if keep(f.g.Label(x)) {
			dst = append(dst, x)
		}
	}
	return dst
}

func (f *treeFrame) evalSet(n *ast.Node) {
	dst := f.bufs[n.Dst]
	switch n.Op {
	case ast.OpAll:
		nv := f.g.NumVertices()
		if cap(dst) < nv {
			dst = make([]uint32, nv)
			for i := range dst {
				dst[i] = uint32(i)
			}
		}
		dst = dst[:nv]
	case ast.OpNeighbors:
		// Alias the CSR adjacency directly: zero copies.
		f.sets[n.Dst] = f.g.Neighbors(f.vars[n.V])
		return
	case ast.OpIntersect:
		dst = vset.Intersect(dst, f.sets[n.A], f.sets[n.B])
	case ast.OpSubtract:
		dst = vset.Subtract(dst, f.sets[n.A], f.sets[n.B])
	case ast.OpRemove:
		dst = vset.Remove(dst, f.sets[n.A], f.vars[n.V])
	case ast.OpTrimAbove:
		dst = vset.Copy(dst, vset.SliceBelow(f.sets[n.A], f.vars[n.V]))
	case ast.OpTrimBelow:
		dst = vset.Copy(dst, vset.SliceAbove(f.sets[n.A], f.vars[n.V]))
	case ast.OpCopy:
		dst = vset.Copy(dst, f.sets[n.A])
	case ast.OpFilterLabel:
		want := uint32(n.Imm)
		dst = f.filter(dst, f.sets[n.A], func(l uint32) bool { return l == want })
	case ast.OpFilterLabelOfVar:
		want := f.g.Label(f.vars[n.V])
		dst = f.filter(dst, f.sets[n.A], func(l uint32) bool { return l == want })
	case ast.OpFilterLabelNotOfVar:
		avoid := f.g.Label(f.vars[n.V])
		dst = f.filter(dst, f.sets[n.A], func(l uint32) bool { return l != avoid })
	default:
		panic(fmt.Sprintf("evalTree: unknown set op %d", n.Op))
	}
	f.bufs[n.Dst] = dst
	f.sets[n.Dst] = dst
}

func (f *treeFrame) evalScalar(n *ast.Node) int64 {
	switch n.SOp {
	case ast.SSize:
		return int64(len(f.sets[n.A]))
	case ast.SConst:
		return n.Imm
	case ast.SMul:
		return f.scalars[n.SA] * f.scalars[n.SB]
	case ast.SDiv:
		d := f.scalars[n.SB]
		if d == 0 {
			return 0
		}
		return f.scalars[n.SA] / d
	case ast.SSub:
		return f.scalars[n.SA] - f.scalars[n.SB]
	case ast.SAdd:
		return f.scalars[n.SA] + f.scalars[n.SB]
	case ast.SCountAbove:
		return vset.CountAbove(f.sets[n.A], f.vars[n.V])
	case ast.SCountBelow:
		return vset.CountBelow(f.sets[n.A], f.vars[n.V])
	}
	panic(fmt.Sprintf("evalTree: unknown scalar op %d", n.SOp))
}
