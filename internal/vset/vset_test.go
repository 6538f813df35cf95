package vset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func s(vs ...uint32) Set { return vs }

func TestIntersectBasic(t *testing.T) {
	tests := []struct {
		a, b, want Set
	}{
		{s(), s(), s()},
		{s(1, 2, 3), s(), s()},
		{s(), s(1, 2, 3), s()},
		{s(1, 2, 3), s(2, 3, 4), s(2, 3)},
		{s(1, 3, 5), s(2, 4, 6), s()},
		{s(1, 2, 3), s(1, 2, 3), s(1, 2, 3)},
		{s(0), s(0), s(0)},
		{s(5), s(1, 2, 3, 4, 5, 6), s(5)},
	}
	for _, tt := range tests {
		got := Intersect(nil, tt.a, tt.b)
		if !Equal(got, tt.want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if n := IntersectCount(tt.a, tt.b); n != int64(len(tt.want)) {
			t.Errorf("IntersectCount(%v,%v) = %d, want %d", tt.a, tt.b, n, len(tt.want))
		}
	}
}

func TestIntersectGallop(t *testing.T) {
	// Force the galloping path: a tiny set against a huge one.
	big := make(Set, 0, 10000)
	for i := 0; i < 10000; i++ {
		big = append(big, uint32(i*3)) // multiples of 3
	}
	small := s(0, 2, 3, 9, 29997, 29999, 40000)
	want := s(0, 3, 9, 29997)
	got := Intersect(nil, small, big)
	if !Equal(got, want) {
		t.Fatalf("gallop Intersect = %v, want %v", got, want)
	}
	if n := IntersectCount(small, big); n != 4 {
		t.Fatalf("gallop IntersectCount = %d, want 4", n)
	}
}

func TestIntersectInPlace(t *testing.T) {
	a := s(1, 2, 3, 4, 5)
	b := s(2, 4, 6)
	got := Intersect(a[:0], a, b)
	if !Equal(got, s(2, 4)) {
		t.Fatalf("in-place Intersect = %v", got)
	}
}

func TestSubtract(t *testing.T) {
	tests := []struct {
		a, b, want Set
	}{
		{s(), s(1), s()},
		{s(1, 2, 3), s(), s(1, 2, 3)},
		{s(1, 2, 3), s(2), s(1, 3)},
		{s(1, 2, 3), s(1, 2, 3), s()},
		{s(1, 5, 9), s(2, 3, 4, 6, 7, 8), s(1, 5, 9)},
	}
	for _, tt := range tests {
		got := Subtract(nil, tt.a, tt.b)
		if !Equal(got, tt.want) {
			t.Errorf("Subtract(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestRemoveContains(t *testing.T) {
	a := s(1, 3, 5, 7)
	if got := Remove(nil, a, 5); !Equal(got, s(1, 3, 7)) {
		t.Fatalf("Remove = %v", got)
	}
	if got := Remove(nil, a, 4); !Equal(got, a) {
		t.Fatalf("Remove missing = %v", got)
	}
	for _, v := range a {
		if !Contains(a, v) {
			t.Errorf("Contains(%v,%d) = false", a, v)
		}
	}
	for _, v := range []uint32{0, 2, 4, 6, 8} {
		if Contains(a, v) {
			t.Errorf("Contains(%v,%d) = true", a, v)
		}
	}
}

func TestTrim(t *testing.T) {
	a := s(1, 3, 5, 7, 9)
	if got := SliceAbove(a, 5); !Equal(got, s(7, 9)) {
		t.Fatalf("SliceAbove = %v", got)
	}
	if got := SliceAbove(a, 4); !Equal(got, s(5, 7, 9)) {
		t.Fatalf("SliceAbove(miss) = %v", got)
	}
	if got := SliceBelow(a, 5); !Equal(got, s(1, 3)) {
		t.Fatalf("SliceBelow = %v", got)
	}
	if got := SliceBelow(a, 10); !Equal(got, a) {
		t.Fatalf("SliceBelow(all) = %v", got)
	}
	if got := CountBelow(a, 6); got != 3 {
		t.Fatalf("CountBelow = %d", got)
	}
	if got := CountAbove(a, 5); got != 2 {
		t.Fatalf("CountAbove = %d", got)
	}
	if got := CountAbove(a, 0); got != 5 {
		t.Fatalf("CountAbove(0) = %d", got)
	}
}

func randSet(r *rand.Rand, maxLen, universe int) Set {
	n := r.Intn(maxLen)
	seen := map[uint32]bool{}
	for len(seen) < n {
		seen[uint32(r.Intn(universe))] = true
	}
	out := make(Set, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// naive reference implementations
func naiveIntersect(a, b Set) Set {
	m := map[uint32]bool{}
	for _, v := range b {
		m[v] = true
	}
	out := Set{}
	for _, v := range a {
		if m[v] {
			out = append(out, v)
		}
	}
	return out
}

func naiveSubtract(a, b Set) Set {
	m := map[uint32]bool{}
	for _, v := range b {
		m[v] = true
	}
	out := Set{}
	for _, v := range a {
		if !m[v] {
			out = append(out, v)
		}
	}
	return out
}

func TestQuickIntersectMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randSet(rr, 200, 500)
		b := randSet(rr, 200, 500)
		got := Intersect(nil, a, b)
		want := naiveIntersect(a, b)
		return Equal(got, want) &&
			IntersectCount(a, b) == int64(len(want)) &&
			IsSorted(got)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGallopMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		small := randSet(rr, 8, 100000)
		big := randSet(rr, 5000, 100000)
		got := Intersect(nil, small, big)
		want := naiveIntersect(small, big)
		return Equal(got, want) && IntersectCount(small, big) == int64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubtractMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randSet(rr, 200, 500)
		b := randSet(rr, 200, 500)
		got := Subtract(nil, a, b)
		want := naiveSubtract(a, b)
		return Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTrimInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	f := func(seed int64, bound uint32) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randSet(rr, 200, 500)
		bound %= 600
		below := SliceBelow(a, bound)
		above := SliceAbove(a, bound)
		n := len(below) + len(above)
		if Contains(a, bound) {
			n++
		}
		if n != len(a) {
			return false
		}
		for _, v := range below {
			if v >= bound {
				return false
			}
		}
		for _, v := range above {
			if v <= bound {
				return false
			}
		}
		return CountBelow(a, bound) == int64(len(below)) &&
			CountAbove(a, bound) == int64(len(above))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectMerge(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randSet(r, 1000, 10000)
	y := randSet(r, 1000, 10000)
	dst := make(Set, 0, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, x, y)
	}
}

func BenchmarkIntersectGallop(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randSet(r, 16, 1000000)
	y := randSet(r, 100000, 1000000)
	dst := make(Set, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, x, y)
	}
}

// randSetN draws n distinct elements of [0, universe) as a sorted set.
func randSetN(r *rand.Rand, n, universe int) Set {
	out := make(Set, 0, n)
	for _, v := range r.Perm(universe)[:n] {
		out = append(out, uint32(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BenchmarkIntersectShort times the merge kernels at the short lengths
// the innermost mining loops see. Each size cycles through 1024 distinct
// seeded pairs of n-element sets over a 4n universe: on one repeated
// pair the branch predictor learns the merge's advance pattern and the
// numbers stop describing real inputs. ns/elem counts both operands.
func BenchmarkIntersectShort(b *testing.B) {
	const pairs = 1024
	for _, n := range []int{16, 64, 256, 4096} {
		r := rand.New(rand.NewSource(int64(n)))
		xs, ys := make([]Set, pairs), make([]Set, pairs)
		for i := range xs {
			xs[i], ys[i] = randSetN(r, n, 4*n), randSetN(r, n, 4*n)
		}
		perElem := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/elem")
		}
		b.Run(fmt.Sprintf("merge/n=%d", n), func(b *testing.B) {
			dst := make(Set, 0, n)
			for i := 0; i < b.N; i++ {
				dst = Intersect(dst, xs[i%pairs], ys[i%pairs])
			}
			perElem(b)
		})
		b.Run(fmt.Sprintf("count/n=%d", n), func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += IntersectCount(xs[i%pairs], ys[i%pairs])
			}
			benchSink = sink
			perElem(b)
		})
		b.Run(fmt.Sprintf("subtract/n=%d", n), func(b *testing.B) {
			dst := make(Set, 0, n)
			for i := 0; i < b.N; i++ {
				dst = Subtract(dst, xs[i%pairs], ys[i%pairs])
			}
			perElem(b)
		})
	}
}

var benchSink int64
