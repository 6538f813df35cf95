// Package engine executes compiled DecoMine programs against an input
// graph: a register-machine bytecode VM over the lowered AST IR (the
// moral equivalent of the paper's generated C++), a work-stealing
// parallel driver for the outermost loops, and the epoch-validated hash
// table of paper §5 whose clear operation is O(1).
package engine

// HashTable maps fixed-width vertex-tuple keys to int64 counters. It
// implements the paper's num_shrinkages table with the entry_valid /
// global_valid epoch trick: Clear bumps a single epoch counter instead of
// touching entries, so per-e_C clearing costs O(1) even for large tables.
//
// Stale slots still lengthen probe chains, so when ever-used slots reach
// 70 % the table rehashes its live entries: in place at the same
// capacity while fewer than a quarter of the slots are live, doubled
// only when live entries fill it. Its size therefore tracks the most
// keys live in one epoch, not every key seen since it was made, and the
// rehash (through spare buffers kept on the table) allocates nothing in
// steady state and costs amortised O(1) per insert.
type HashTable struct {
	width   int // key words per entry
	keys    []uint32
	values  []int64
	valid   []uint64 // entry epoch; 0 = never used
	epoch   uint64   // current epoch (>= 1)
	count   int      // live entries in the current epoch
	used    int      // slots ever used (live + stale); bounds probe chains
	numSlot int
	// spareKeys/spareVals hold the live entries while rehash rebuilds.
	spareKeys []uint32
	spareVals []int64
}

// NewHashTable creates a table for keys of the given width.
func NewHashTable(width int) *HashTable {
	if width < 1 {
		width = 1
	}
	const initial = 16
	return &HashTable{
		width:   width,
		keys:    padded[uint32](initial * width),
		values:  padded[int64](initial),
		valid:   padded[uint64](initial),
		epoch:   1,
		numSlot: initial,
	}
}

// Clear invalidates all entries in O(1) by bumping the epoch. On (never
// observed) overflow it reinitializes validity words, matching the
// paper's description.
func (h *HashTable) Clear() {
	h.epoch++
	h.count = 0
	if h.epoch == 0 { // overflow: reinitialize
		for i := range h.valid {
			h.valid[i] = 0
		}
		h.epoch = 1
		h.used = 0
	}
}

// Len returns the number of live entries in the current epoch.
func (h *HashTable) Len() int { return h.count }

func hashKey(key []uint32) uint64 {
	var x uint64 = 1469598103934665603 // FNV-64 offset basis
	for _, k := range key {
		x ^= uint64(k)
		x *= 1099511628211
		x ^= uint64(k >> 16)
		x *= 1099511628211
	}
	return x
}

func (h *HashTable) keyAt(slot int) []uint32 {
	return h.keys[slot*h.width : (slot+1)*h.width]
}

func keyEq(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Add adds delta to the entry for key, creating it at delta if absent.
func (h *HashTable) Add(key []uint32, delta int64) {
	// Rehash on ever-used occupancy (live + stale): this guarantees
	// never-used slots always remain, so probe chains terminate.
	if h.used*10 >= h.numSlot*7 {
		h.rehash()
	}
	mask := h.numSlot - 1
	slot := int(hashKey(key)) & mask
	firstStale := -1
	for {
		switch {
		case h.valid[slot] == h.epoch:
			if keyEq(h.keyAt(slot), key) {
				h.values[slot] += delta
				return
			}
		case h.valid[slot] == 0:
			// Never-used slot terminates the probe chain.
			if firstStale >= 0 {
				slot = firstStale
			} else {
				h.used++
			}
			copy(h.keyAt(slot), key)
			h.values[slot] = delta
			h.valid[slot] = h.epoch
			h.count++
			return
		default:
			// Stale entry from an earlier epoch: reusable, but the chain
			// continues past it.
			if firstStale < 0 {
				firstStale = slot
			}
		}
		slot = (slot + 1) & mask
	}
}

// Get returns the value at key, or 0 if absent.
func (h *HashTable) Get(key []uint32) int64 {
	mask := h.numSlot - 1
	slot := int(hashKey(key)) & mask
	for {
		switch {
		case h.valid[slot] == h.epoch:
			if keyEq(h.keyAt(slot), key) {
				return h.values[slot]
			}
		case h.valid[slot] == 0:
			return 0
		}
		slot = (slot + 1) & mask
	}
}

// rehash rebuilds the table from its live entries alone, at the same
// capacity while fewer than a quarter of the slots are live and at
// double capacity otherwise. Either way at most 35 % of the slots are
// used afterwards, so the next rehash is at least 35 % of the capacity in
// new keys away.
func (h *HashTable) rehash() {
	h.spareKeys, h.spareVals = h.spareKeys[:0], h.spareVals[:0]
	for slot := 0; slot < h.numSlot; slot++ {
		if h.valid[slot] == h.epoch {
			h.spareKeys = append(h.spareKeys, h.keyAt(slot)...)
			h.spareVals = append(h.spareVals, h.values[slot])
		}
	}
	if h.count*4 < h.numSlot {
		clear(h.valid)
	} else {
		h.numSlot *= 2
		h.keys = padded[uint32](h.numSlot * h.width)
		h.values = padded[int64](h.numSlot)
		h.valid = padded[uint64](h.numSlot)
	}
	h.count, h.used = 0, 0
	for i, v := range h.spareVals {
		h.Add(h.spareKeys[i*h.width:(i+1)*h.width], v)
	}
}
