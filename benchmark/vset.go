package main

import (
	"math/rand"
	"sort"
	"time"

	"decomine/internal/vset"
)

// vsetKernels times the three set-intersection kernels in isolation at
// fixed sizes on seeded sets over a 2^16 universe: merge on 4096∩4096
// (per element of both operands), gallop on 64∩65536 (per element of
// the small operand) and the bitmap filter on 4096∩bitmap (per element
// of the array operand). Multiplying by a workload's vset.elems.* gives
// the share of its execution a kernel change can touch.
func vsetKernels(m metrics, seed int64) {
	const universe = 1 << 16
	rng := rand.New(rand.NewSource(seed))
	draw := func(n int) vset.Set {
		s := make(vset.Set, 0, n)
		for _, v := range rng.Perm(universe)[:n] {
			s = append(s, uint32(v))
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	a, b := draw(4096), draw(4096)
	small, all := draw(64), draw(universe)
	bm := vset.MakeBitmap(b, universe)
	dst := make(vset.Set, 0, 4096)

	// perElem runs fn for about 30 ms and returns ns per element.
	perElem := func(elems int, fn func()) float64 {
		fn() // warm the caches
		reps, start := 0, time.Now()
		for time.Since(start) < 30*time.Millisecond {
			for i := 0; i < 16; i++ {
				fn()
			}
			reps += 16
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*elems)
	}
	m.set("vset.merge_ns_per_elem", perElem(len(a)+len(b), func() { dst = vset.Intersect(dst[:0], a, b) }), "ns")
	m.set("vset.gallop_ns_per_elem", perElem(len(small), func() { dst = vset.Intersect(dst[:0], small, all) }), "ns")
	m.set("vset.bitmap_ns_per_elem", perElem(len(a), func() { dst = vset.IntersectBitmap(dst[:0], a, bm) }), "ns")
}
