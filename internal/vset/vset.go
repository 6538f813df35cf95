// Package vset implements the sorted vertex-set kernels that form the data
// plane of the DecoMine engine. A vertex set is a strictly increasing slice
// of uint32 vertex IDs. All binary operations write into a caller-provided
// destination slice to keep the inner mining loops allocation-free; the
// destination is grown (via append semantics) only when capacity is
// insufficient.
package vset

// Set is a strictly increasing sequence of vertex IDs.
type Set = []uint32

// Intersect writes the intersection of a and b into dst[:0] and returns the
// result. dst may alias neither a nor b unless it is exactly a[:0] or b[:0]
// (in-place intersection with the output no longer than either input is
// safe because writes trail reads). dst is replaced by a fresh slice when
// its capacity is below the shorter operand's length.
func Intersect(dst, a, b Set) Set {
	dst = dst[:0]
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	// Keep a as the smaller operand.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= len(a)*GallopThreshold {
		return gallopIntersect(dst, a, b)
	}
	n := len(a)
	if cap(dst) < n {
		dst = make(Set, 0, n)
	}
	// The merge writes a[i] to out[k] on every step, match or not, and
	// keeps it only by advancing k. k never passes i or j, so in place a
	// write lands at or behind the aliased operand's read position. In a
	// that is harmless (out[i] = a[i]), but in b it would overwrite b[j]
	// while b[j] may still be compared again, so the aliased operand must
	// be the one named a.
	if &dst[:1][0] == &b[0] {
		a, b = b, a
	}
	out := dst[:n]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		va := a[i]
		out[k] = va
		// Branch-free advance: d>>63 is -1 when d < 0 and 0 otherwise, so
		// ai is 1 when a[i] <= b[j] and bj is 1 when b[j] <= a[i].
		d := int64(b[j]) - int64(va)
		ai := int(1 + d>>63)
		bj := int(1 + (-d)>>63)
		k += ai & bj
		i += ai
		j += bj
	}
	return out[:k]
}

// gallopIntersect intersects the small set a against the much larger set b by
// exponential probing followed by binary search.
func gallopIntersect(dst, a, b Set) Set {
	lo := 0
	for _, v := range a {
		if lo = Seek(b, lo, v); lo == len(b) {
			break
		}
		if b[lo] == v {
			dst = append(dst, v)
			lo++
		}
	}
	return dst
}

// Seek returns the first index i >= from with s[i] >= v, or len(s), by
// exponential probing from from followed by binary search: O(log(i-from))
// probes, so a run of ascending lookups costs about one merge pass.
func Seek(s Set, from int, v uint32) int {
	lo, hi, step := from, from, 1
	for hi < len(s) && s[hi] < v {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	if hi > len(s) {
		hi = len(s)
	}
	return lo + lowerBound(s[lo:hi], v)
}

// lowerBound returns the first index i in s with s[i] >= v, or len(s).
func lowerBound(s Set, v uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectCount returns |a ∩ b| without materializing the result. This is
// the kernel behind the "mathematical" last-loop counting optimization.
func IntersectCount(a, b Set) int64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	var n int64
	if len(b) >= len(a)*GallopThreshold {
		lo := 0
		for _, v := range a {
			if lo = Seek(b, lo, v); lo == len(b) {
				break
			}
			if b[lo] == v {
				n++
				lo++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// The branch-free advance of Intersect's merge.
		d := int64(b[j]) - int64(a[i])
		ai := int(1 + d>>63)
		bj := int(1 + (-d)>>63)
		n += int64(ai & bj)
		i += ai
		j += bj
	}
	return n
}

// Subtract writes a \ b into dst[:0] and returns it. dst may be a[:0]
// (in-place subtraction is safe). dst is replaced by a fresh slice when
// its capacity is below len(a).
func Subtract(dst, a, b Set) Set {
	dst = dst[:0]
	if cap(dst) < len(a) {
		dst = make(Set, 0, len(a))
	}
	out := dst[:len(a)]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		// Intersect's branch-free merge, keeping a[i] when it is below b[j].
		va := a[i]
		out[k] = va
		d := int64(b[j]) - int64(va)
		ai := int(1 + d>>63)
		bj := int(1 + (-d)>>63)
		k += ai &^ bj
		i += ai
		j += bj
	}
	k += copy(out[k:], a[i:])
	return out[:k]
}

// Remove writes a \ {v} into dst[:0] and returns it. dst may be a[:0].
func Remove(dst, a Set, v uint32) Set {
	dst = dst[:0]
	for _, x := range a {
		if x != v {
			dst = append(dst, x)
		}
	}
	return dst
}

// Contains reports whether v is a member of s, by binary search.
func Contains(s Set, v uint32) bool {
	i := lowerBound(s, v)
	return i < len(s) && s[i] == v
}

// SliceAbove returns the suffix of a with elements strictly greater than
// bound, as a zero-copy subslice of a. It implements the lower-bound
// "trimming" set operation from the paper's AST vocabulary, used by
// symmetry-breaking restrictions of the form v > bound.
func SliceAbove(a Set, bound uint32) Set {
	i := lowerBound(a, bound)
	if i < len(a) && a[i] == bound {
		i++
	}
	return a[i:]
}

// SliceBelow returns the prefix of a with elements strictly smaller than
// bound, as a zero-copy subslice of a: the upper-bound trimming used by
// restrictions v < bound.
func SliceBelow(a Set, bound uint32) Set {
	return a[:lowerBound(a, bound)]
}

// CountBelow returns |{x ∈ a : x < bound}|.
func CountBelow(a Set, bound uint32) int64 {
	return int64(lowerBound(a, bound))
}

// CountAbove returns |{x ∈ a : x > bound}|.
func CountAbove(a Set, bound uint32) int64 {
	i := lowerBound(a, bound)
	if i < len(a) && a[i] == bound {
		i++
	}
	return int64(len(a) - i)
}

// Copy replicates src into dst[:0] and returns it.
func Copy(dst, src Set) Set {
	dst = dst[:0]
	return append(dst, src...)
}

// IsSorted reports whether s is strictly increasing, i.e. a valid Set.
func IsSorted(s Set) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Equal reports element-wise equality.
func Equal(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
