package engine

// The word form of local regions (ast's local.go). A region's
// ILocalBuild takes the current root's set S, ranks its members
// [0, |S|) in ID order, and builds the row masks N(u) ∩ S of the members
// the region's loops can bind; every flagged instruction of the region
// then runs on masks over those ranks: an intersection is an AND, a
// subtraction an AND NOT, a trim or window a range of ranks, a count a
// popcount, and a loop iterates set bits, binding each variable's ID in
// vars and its rank beside it. A root whose S is wider than localWords
// words, spans more IDs than its span index covers, or holds a hub (hubs
// are the ID suffix, and keep their bitmap rows), runs the same flagged
// instructions in the list form instead. Both forms compute the same
// registers and execute the same instructions; only kernel work differs.
// Word ops count under KernelWords, one element per word read: an AND or
// AND NOT over the words in use, or a row build's probes of S's span
// index.

import (
	"math"
	"math/bits"

	"decomine/internal/ast"
	"decomine/internal/vset"
)

// localWords is the word budget of a local region: a root whose S has
// more than 64·localWords members keeps the list form.
const localWords = 4

// localPlan is the per-program half of the word form.
type localPlan struct {
	kind   []ast.LocalKind // per set register (Lowered.Local)
	slot   []int32         // LocalMask register -> its words' offset in a frame's masks
	rowVar []int32         // LocalRow register -> the variable whose row it reads
	ranked []bool          // per variable: bound by a word-form loop, so it has a rank
	masks  int             // mask registers
	hub    uint32          // lowest hub ID (math.MaxUint32 without hubs)
}

func newLocalPlan(sh *vmShared) localPlan {
	bc := sh.bc
	p := localPlan{
		kind:   bc.Local,
		slot:   make([]int32, len(bc.Local)),
		rowVar: make([]int32, len(bc.Local)),
		ranked: make([]bool, bc.Prog.NumVars),
		hub:    math.MaxUint32,
	}
	if sh.hub != nil {
		p.hub = sh.hub.First()
	}
	for r, k := range bc.Local {
		if k == ast.LocalMask {
			p.slot[r] = int32(p.masks * localWords)
			p.masks++
		}
	}
	for i := range bc.Code {
		switch ins := &bc.Code[i]; {
		case ins.Op == ast.ISetDef && int(ins.Dst) < len(bc.Local) && bc.Local[ins.Dst] == ast.LocalRow:
			p.rowVar[ins.Dst] = ins.V
		case ins.Op == ast.ILoopBegin && ins.Flags&ast.FlagLocal != 0:
			p.ranked[ins.Dst] = true
		}
	}
	return p
}

// localState is the per-frame half, set by each root's ILocalBuild.
type localState struct {
	on    bool               // the current root runs its region in the word form
	nw    int                // words in use: ceil(|S|/64)
	ids   []uint32           // S, the member of each rank
	all   [localWords]uint64 // S's full mask
	span  [spanWords]uint64  // S's span index (index)
	below [spanWords]int32
	rows  []uint64   // localWords words per rank
	masks []uint64   // localWords words per mask register
	rank  []int32    // per ranked variable: its rank in S
	loops [][]uint32 // per loop: the ranks of its iteration set
}

func newLocalState(sh *vmShared) *localState {
	// S lies in N(v0), so no root ranks more members than the maximum
	// degree.
	members := min(64*localWords, sh.g.MaxDegree())
	lc := &localState{
		rows:  padded[uint64](members * localWords),
		masks: padded[uint64](sh.local.masks * localWords),
		rank:  padded[int32](sh.bc.Prog.NumVars),
		loops: make([][]uint32, sh.bc.NumLoops),
	}
	for i := range sh.bc.Code {
		if ins := &sh.bc.Code[i]; ins.Op == ast.ILoopBegin && ins.Flags&ast.FlagLocal != 0 {
			lc.loops[ins.LoopID] = padded[uint32](members)[:0]
		}
	}
	return lc
}

// local reports whether ins runs in the word form under the current
// root.
func (f *vmFrame) local(ins *ast.Instr) bool {
	return ins.Flags&ast.FlagLocal != 0 && f.loc.on
}

// execLocalBuild picks the current root's form and, for the word form,
// ranks S and builds the rows of the members inside the build's window:
// N⁺(u) ∩ S when every read keeps only elements above u (Imm != 0),
// N(u) ∩ S otherwise, each list cut to S's range first.
func (f *vmFrame) execLocalBuild(ins *ast.Instr) {
	lc := f.loc
	s := f.sets[ins.A]
	lc.on = len(s) == 0 || len(s) <= 64*localWords && s[len(s)-1] < f.sh.local.hub &&
		s[len(s)-1]-s[0] < 64*spanWords
	if !lc.on {
		return
	}
	nw := (len(s) + 63) / 64
	lc.ids, lc.nw = s, nw
	if len(s) == 0 {
		return
	}
	for i := range nw {
		lc.all[i] = math.MaxUint64
	}
	clip(lc.all[:nw], 0, len(s))
	lo, hi := 0, len(s)
	if ins.WinLo >= 0 {
		lo = vset.Seek(s, 0, f.vars[ins.WinLo]+1)
	}
	if ins.WinHi >= 0 {
		hi = vset.Seek(s, 0, f.vars[ins.WinHi])
	}
	g := f.sh.g
	first, last := s[0], s[len(s)-1]
	lc.index(s)
	for i := lo; i < hi; i++ {
		var nb []uint32
		if ins.Imm != 0 {
			nb = g.NeighborsAbove(s[i])
		} else {
			nb = g.Neighbors(s[i])
			nb = nb[vset.Seek(nb, 0, first):]
		}
		nb = nb[:vset.Seek(nb, 0, last+1)]
		f.noteKernel(KernelWords, int64(len(nb)))
		lc.probe(lc.rows[i*localWords:i*localWords+nw], nb, first)
	}
}

// spanWords bounds the span index of S: S's members must lie within
// 64·spanWords consecutive IDs, and rows are built by probing each
// neighbor list through a bitmap of S over that span, one word read per
// element. A root whose S spans more keeps the list form.
const spanWords = 64

// index builds the span index of s: bit x−s[0] of span is set for every
// member x, and below[w] is the rank of the first member in word w.
func (lc *localState) index(s []uint32) {
	n := int(s[len(s)-1]-s[0])>>6 + 1
	clear(lc.span[:n])
	for _, x := range s {
		d := x - s[0]
		lc.span[d>>6] |= 1 << (d & 63)
	}
	r := 0
	for w := range n {
		lc.below[w] = int32(r)
		r += bits.OnesCount64(lc.span[w])
	}
}

// probe writes row, the ranks of the members of S that nb holds, for a
// list nb cut to S's range [first, last], through the span index.
func (lc *localState) probe(row []uint64, nb []uint32, first uint32) {
	var acc [localWords + 1]uint64 // a miss's rank may be |S|
	for _, x := range nb {
		d := x - first
		w := lc.span[d>>6]
		b := d & 63
		r := uint32(lc.below[d>>6]) + uint32(bits.OnesCount64(w&(1<<b-1)))
		acc[r>>6] |= (w >> b & 1) << (r & 63)
	}
	copy(row, acc[:])
}

// lread returns the word form of set register r under the current root.
func (f *vmFrame) lread(r int32) []uint64 {
	lc, p := f.loc, &f.sh.local
	switch p.kind[r] {
	case ast.LocalMask:
		o := int(p.slot[r])
		return lc.masks[o : o+lc.nw]
	case ast.LocalRow:
		o := int(lc.rank[p.rowVar[r]]) * localWords
		return lc.rows[o : o+lc.nw]
	}
	return lc.all[:lc.nw]
}

// rankAbove returns the first rank whose member lies above vars[v].
func (f *vmFrame) rankAbove(v int32) int {
	if f.sh.local.ranked[v] {
		return int(f.loc.rank[v]) + 1
	}
	return vset.Seek(f.loc.ids, 0, f.vars[v]+1)
}

// rankBelow returns the first rank whose member is not below vars[v].
func (f *vmFrame) rankBelow(v int32) int {
	if f.sh.local.ranked[v] {
		return int(f.loc.rank[v])
	}
	return vset.Seek(f.loc.ids, 0, f.vars[v])
}

// rankOf returns vars[v]'s rank, and false when it is not in S.
func (f *vmFrame) rankOf(v int32) (int, bool) {
	if f.sh.local.ranked[v] {
		return int(f.loc.rank[v]), true
	}
	ids := f.loc.ids
	r := vset.Seek(ids, 0, f.vars[v])
	return r, r < len(ids) && ids[r] == f.vars[v]
}

// clip clears the bits of m outside ranks [lo, hi).
func clip(m []uint64, lo, hi int) {
	for i := range m {
		b := i * 64
		if lo > b {
			if lo >= b+64 {
				m[i] = 0
				continue
			}
			m[i] &= math.MaxUint64 << (lo - b)
		}
		if hi < b+64 {
			if hi <= b {
				m[i] = 0
				continue
			}
			m[i] &= 1<<(hi-b) - 1
		}
	}
}

func popcount(m []uint64) int64 {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// localSet evaluates a set def in the word form. A neighbor set or an
// auxiliary row is its variable's row, read in place.
func (f *vmFrame) localSet(ins *ast.Instr) {
	if ins.Set == ast.OpNeighbors || ins.Set == ast.OpAuxRow {
		return
	}
	lc := f.loc
	o := int(f.sh.local.slot[ins.Dst])
	dst := lc.masks[o : o+lc.nw]
	lo, hi := 0, len(lc.ids)
	switch ins.Set {
	case ast.OpIntersect:
		a, b := f.lread(ins.A), f.lread(ins.B)
		for i := range dst {
			dst[i] = a[i] & b[i]
		}
		if ins.WinLo >= 0 {
			lo = f.rankAbove(ins.WinLo)
		}
		if ins.WinHi >= 0 {
			hi = f.rankBelow(ins.WinHi)
		}
		f.noteKernel(KernelWords, int64(lc.nw))
	case ast.OpSubtract:
		a, b := f.lread(ins.A), f.lread(ins.B)
		for i := range dst {
			dst[i] = a[i] &^ b[i]
		}
		f.noteKernel(KernelWords, int64(lc.nw))
	case ast.OpRemove:
		copy(dst, f.lread(ins.A))
		if r, ok := f.rankOf(ins.V); ok {
			dst[r>>6] &^= 1 << (r & 63)
		}
	case ast.OpTrimBelow:
		copy(dst, f.lread(ins.A))
		lo = f.rankAbove(ins.V)
	case ast.OpTrimAbove:
		copy(dst, f.lread(ins.A))
		hi = f.rankBelow(ins.V)
	default: // OpCopy
		copy(dst, f.lread(ins.A))
	}
	if lo > 0 || hi < len(lc.ids) {
		clip(dst, lo, hi)
	}
}

// localCount evaluates a fused count in the word form: the popcount of
// its operands' AND inside its window, less the excluded members.
func (f *vmFrame) localCount(ins *ast.Instr) int64 {
	lc := f.loc
	var m [localWords]uint64
	w := m[:lc.nw]
	a := f.lread(ins.A)
	if ins.B >= 0 {
		b := f.lread(ins.B)
		for i := range w {
			w[i] = a[i] & b[i]
		}
		f.noteKernel(KernelWords, int64(lc.nw))
	} else {
		copy(w, a)
	}
	lo, hi := 0, len(lc.ids)
	if ins.V >= 0 {
		lo = f.rankAbove(ins.V)
	}
	if ins.SA >= 0 {
		hi = f.rankBelow(ins.SA)
	}
	if lo > 0 || hi < len(lc.ids) {
		clip(w, lo, hi)
	}
	n := popcount(w)
	if ins.NKeys > 0 {
		// Distinct excluded values that are members, as exclCount.
		ks := f.sh.bc.KeyVars(ins)
		for i, kv := range ks {
			dup := false
			for _, pv := range ks[:i] {
				dup = dup || f.vars[pv] == f.vars[kv]
			}
			if r, ok := f.rankOf(kv); ok && !dup && w[r>>6]>>(r&63)&1 != 0 {
				n--
			}
		}
	}
	return n - ins.Imm
}

// localScalar evaluates a size or one-sided count in the word form.
func (f *vmFrame) localScalar(ins *ast.Instr) int64 {
	lc := f.loc
	var m [localWords]uint64
	w := m[:lc.nw]
	copy(w, f.lread(ins.A))
	switch ins.SOp {
	case ast.SCountAbove:
		clip(w, f.rankAbove(ins.V), len(lc.ids))
	case ast.SCountBelow:
		clip(w, 0, f.rankBelow(ins.V))
	}
	return popcount(w)
}

// localRanks expands the iteration set of loop ins into its ranks.
func (f *vmFrame) localRanks(ins *ast.Instr) []uint32 {
	s := f.loc.loops[ins.LoopID]
	s = s[:cap(s)]
	n := 0
	for i, w := range f.lread(ins.A) {
		for ; w != 0; w &= w - 1 {
			s[n] = uint32(i*64 + bits.TrailingZeros64(w))
			n++
		}
	}
	return s[:n]
}

// localEmpty reports whether set register r, a loop guard, is empty:
// a mask has no list under the word form, and a neighbor set reads as
// its variable's row, so its emptiness is its variable's degree.
func (f *vmFrame) localEmpty(r int32) bool {
	switch p := &f.sh.local; p.kind[r] {
	case ast.LocalMask:
		for _, w := range f.lread(r) {
			if w != 0 {
				return false
			}
		}
		return true
	case ast.LocalRow:
		return f.sh.g.Degree(f.vars[p.rowVar[r]]) == 0
	}
	return len(f.sets[r]) == 0
}

// bindRank binds variable v to the member of rank r.
func (f *vmFrame) bindRank(v int32, r uint32) {
	f.loc.rank[v] = int32(r)
	f.vars[v] = f.loc.ids[r]
}

// localBegin enters loop ins, at pc, in the word form: it binds the
// first member of its iteration set and returns true, or returns false
// when the loop is empty or its guard skips it (clean-up rule 8).
func (f *vmFrame) localBegin(ins *ast.Instr, pc int32) bool {
	s := f.localRanks(ins)
	if len(s) == 0 {
		return false
	}
	if ins.B >= 0 && f.localEmpty(ins.B) {
		f.elided += (int64(ins.Off-pc-1) + ins.Imm) * int64(len(s))
		return false
	}
	f.cur[ins.LoopID] = s
	f.iter[ins.LoopID] = 1
	f.bindRank(ins.Dst, s[0])
	f.elided += ins.Imm * int64(len(s))
	return true
}
