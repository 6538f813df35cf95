package vset

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

func TestIntersectBitmapBasic(t *testing.T) {
	tests := []struct {
		a, b Set
		n    int // bitmap universe
	}{
		{s(), s(), 64},
		{s(1, 2, 3), s(), 64},
		{s(1, 2, 3), s(2, 3, 4), 64},
		{s(0, 63, 64, 127, 128), s(63, 64, 128), 192},
		{s(1, 2, 3), s(1, 2, 3), 64},
	}
	for _, tt := range tests {
		bm := MakeBitmap(tt.b, tt.n)
		want := naiveIntersect(tt.a, tt.b)
		if got := IntersectBitmap(nil, tt.a, bm); !Equal(got, want) {
			t.Errorf("IntersectBitmap(%v,%v) = %v, want %v", tt.a, tt.b, got, want)
		}
		if got := IntersectCountBitmap(tt.a, bm); got != int64(len(want)) {
			t.Errorf("IntersectCountBitmap(%v,%v) = %d, want %d", tt.a, tt.b, got, len(want))
		}
		wantSub := naiveSubtract(tt.a, tt.b)
		if got := SubtractBitmap(nil, tt.a, bm); !Equal(got, wantSub) {
			t.Errorf("SubtractBitmap(%v,%v) = %v, want %v", tt.a, tt.b, got, wantSub)
		}
	}
}

func TestIntersectBitmapInPlace(t *testing.T) {
	a := s(1, 2, 3, 4, 5)
	bm := MakeBitmap(s(2, 4, 6), 64)
	if got := IntersectBitmap(a[:0], a, bm); !Equal(got, s(2, 4)) {
		t.Fatalf("in-place IntersectBitmap = %v", got)
	}
	a = s(1, 2, 3, 4, 5)
	if got := SubtractBitmap(a[:0], a, bm); !Equal(got, s(1, 3, 5)) {
		t.Fatalf("in-place SubtractBitmap = %v", got)
	}
}

func TestAndCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randSet(r, 300, 700)
		b := randSet(r, 300, 700)
		want := int64(len(naiveIntersect(a, b)))
		if got := AndCount(MakeBitmap(a, 700), MakeBitmap(b, 700)); got != want {
			t.Fatalf("AndCount(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
	// Rows of different widths compare over the shorter prefix.
	a := s(1, 100, 200)
	b := s(1, 100, 200, 500)
	if got := AndCount(MakeBitmap(a, 256), MakeBitmap(b, 512)); got != 3 {
		t.Fatalf("mixed-width AndCount = %d, want 3", got)
	}
}

func TestGallops(t *testing.T) {
	small := make(Set, 4)
	big := make(Set, 4*GallopThreshold)
	if !Gallops(small, big) || !Gallops(big, small) {
		t.Fatal("expected galloping at the threshold ratio")
	}
	if Gallops(small, big[:len(big)-1]) {
		t.Fatal("expected merge below the threshold ratio")
	}
	if Gallops(nil, big) {
		t.Fatal("empty operand must not gallop")
	}
}

func TestIntersectBitmapRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		universe := 50 + r.Intn(2000)
		maxLen := 200
		if universe < maxLen {
			maxLen = universe
		}
		a := randSet(r, maxLen, universe)
		b := randSet(r, maxLen, universe)
		bm := MakeBitmap(b, universe)
		if got, want := IntersectBitmap(nil, a, bm), naiveIntersect(a, b); !Equal(got, want) {
			t.Fatalf("IntersectBitmap(%v,%v) = %v, want %v", a, b, got, want)
		}
		if got, want := IntersectCountBitmap(a, bm), int64(len(naiveIntersect(a, b))); got != want {
			t.Fatalf("IntersectCountBitmap(%v,%v) = %d, want %d", a, b, got, want)
		}
		if got, want := SubtractBitmap(nil, a, bm), naiveSubtract(a, b); !Equal(got, want) {
			t.Fatalf("SubtractBitmap(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

// decodeFuzzSets turns raw fuzz bytes into two sorted sets over a small
// universe: each pair of bytes contributes one candidate element per
// set, keeping the mapping dense enough that intersections are nonempty
// often.
func decodeFuzzSets(data []byte) (a, b Set, universe int) {
	universe = 512
	if len(data) >= 2 {
		universe = 64 + int(binary.LittleEndian.Uint16(data))%2048
		data = data[2:]
	}
	seen := [2]map[uint32]bool{{}, {}}
	for i := 0; i+1 < len(data); i += 2 {
		v := uint32(data[i]) | uint32(data[i+1])<<8
		seen[(i/2)%2][v%uint32(universe)] = true
	}
	for side, m := range seen {
		out := make(Set, 0, len(m))
		for v := range m {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		if side == 0 {
			a = out
		} else {
			b = out
		}
	}
	return a, b, universe
}

// FuzzSetKernels differentially tests every set kernel — the sorted
// array merge/gallop family and the bitmap family — against the
// map-based reference implementations on fuzzer-chosen inputs.
func FuzzSetKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	r := rand.New(rand.NewSource(3))
	seedBuf := make([]byte, 256)
	for i := range seedBuf {
		seedBuf[i] = byte(r.Intn(256))
	}
	f.Add(seedBuf)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, universe := decodeFuzzSets(data)
		if !IsSorted(a) || !IsSorted(b) {
			t.Fatalf("decoder produced unsorted sets %v / %v", a, b)
		}
		wantI := naiveIntersect(a, b)
		wantS := naiveSubtract(a, b)
		if got := Intersect(nil, a, b); !Equal(got, wantI) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", a, b, got, wantI)
		}
		// The in-place forms the Intersect doc allows, on copies, and a
		// destination too short for the result.
		ac, bc := append(Set(nil), a...), append(Set(nil), b...)
		if got := Intersect(ac[:0], ac, b); !Equal(got, wantI) {
			t.Errorf("Intersect(a[:0], %v, %v) = %v, want %v", a, b, got, wantI)
		}
		if got := Intersect(bc[:0], a, bc); !Equal(got, wantI) {
			t.Errorf("Intersect(b[:0], %v, %v) = %v, want %v", a, b, got, wantI)
		}
		if got := Intersect(make(Set, 0, len(wantI)/2), a, b); !Equal(got, wantI) {
			t.Errorf("Intersect(short dst, %v, %v) = %v, want %v", a, b, got, wantI)
		}
		if got := IntersectCount(a, b); got != int64(len(wantI)) {
			t.Errorf("IntersectCount(%v,%v) = %d, want %d", a, b, got, len(wantI))
		}
		if got := Subtract(nil, a, b); !Equal(got, wantS) {
			t.Errorf("Subtract(%v,%v) = %v, want %v", a, b, got, wantS)
		}
		ac = append(ac[:0], a...)
		if got := Subtract(ac[:0], ac, b); !Equal(got, wantS) {
			t.Errorf("Subtract(a[:0], %v, %v) = %v, want %v", a, b, got, wantS)
		}
		bm := MakeBitmap(b, universe)
		if got := IntersectBitmap(nil, a, bm); !Equal(got, wantI) {
			t.Errorf("IntersectBitmap(%v,%v) = %v, want %v", a, b, got, wantI)
		}
		if got := IntersectCountBitmap(a, bm); got != int64(len(wantI)) {
			t.Errorf("IntersectCountBitmap(%v,%v) = %d, want %d", a, b, got, len(wantI))
		}
		if got := SubtractBitmap(nil, a, bm); !Equal(got, wantS) {
			t.Errorf("SubtractBitmap(%v,%v) = %v, want %v", a, b, got, wantS)
		}
		if got := AndCount(MakeBitmap(a, universe), bm); got != int64(len(wantI)) {
			t.Errorf("AndCount(%v,%v) = %d, want %d", a, b, got, len(wantI))
		}
	})
}

// The microbenchmarks span the three regimes the VM's kernel router
// chooses between: similar-size sparse operands (merge), a tiny set
// against a huge one (gallop), and an array filtered through a dense
// hub row (bitmap), in sparse×sparse, sparse×hub and hub×hub shapes.

func BenchmarkIntersect_Merge(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randSet(r, 1000, 10000)
	y := randSet(r, 1000, 10000)
	dst := make(Set, 0, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, x, y)
	}
}

func BenchmarkIntersect_Gallop(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randSet(r, 16, 1000000)
	y := randSet(r, 100000, 1000000)
	dst := make(Set, 0, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, x, y)
	}
}

func BenchmarkIntersect_Bitmap(b *testing.B) {
	const universe = 1 << 16
	r := rand.New(rand.NewSource(3))
	sparse := randSet(r, 1000, universe)
	hubA := randSet(r, 20000, universe)
	hubB := randSet(r, 20000, universe)
	bmA := MakeBitmap(hubA, universe)
	bmB := MakeBitmap(hubB, universe)

	b.Run("sparse-x-hub", func(b *testing.B) {
		dst := make(Set, 0, len(sparse))
		for i := 0; i < b.N; i++ {
			dst = IntersectBitmap(dst, sparse, bmB)
		}
	})
	b.Run("sparse-x-hub-array", func(b *testing.B) {
		// The sorted-array alternative on the same operands, for the
		// router's cost comparison.
		dst := make(Set, 0, len(sparse))
		for i := 0; i < b.N; i++ {
			dst = Intersect(dst, sparse, hubB)
		}
	})
	b.Run("hub-x-hub", func(b *testing.B) {
		dst := make(Set, 0, len(hubA))
		for i := 0; i < b.N; i++ {
			dst = IntersectBitmap(dst, hubA, bmB)
		}
	})
	b.Run("hub-x-hub-count", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += AndCount(bmA, bmB)
		}
		_ = sink
	})
}
