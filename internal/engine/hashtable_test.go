package engine

import (
	"math/rand"
	"testing"
)

func TestHashTableBasic(t *testing.T) {
	h := NewHashTable(3)
	k1 := []uint32{1, 2, 3}
	k2 := []uint32{1, 2, 4}
	if h.Get(k1) != 0 {
		t.Fatal("empty table nonzero")
	}
	h.Add(k1, 5)
	h.Add(k2, 7)
	h.Add(k1, 2)
	if h.Get(k1) != 7 || h.Get(k2) != 7 {
		t.Fatalf("got %d %d", h.Get(k1), h.Get(k2))
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestHashTableClearIsEpochal(t *testing.T) {
	h := NewHashTable(2)
	k := []uint32{9, 9}
	h.Add(k, 42)
	h.Clear()
	if h.Get(k) != 0 {
		t.Fatal("cleared value visible")
	}
	if h.Len() != 0 {
		t.Fatal("Len after clear")
	}
	// Stale slot reuse: adding the same key after clear starts fresh.
	h.Add(k, 1)
	if h.Get(k) != 1 {
		t.Fatalf("got %d", h.Get(k))
	}
}

func TestHashTableManyEpochs(t *testing.T) {
	h := NewHashTable(1)
	for epoch := 0; epoch < 100; epoch++ {
		for i := uint32(0); i < 50; i++ {
			h.Add([]uint32{i}, int64(i)+int64(epoch))
		}
		for i := uint32(0); i < 50; i++ {
			if got := h.Get([]uint32{i}); got != int64(i)+int64(epoch) {
				t.Fatalf("epoch %d key %d: got %d", epoch, i, got)
			}
		}
		if h.Get([]uint32{999}) != 0 {
			t.Fatal("missing key nonzero")
		}
		h.Clear()
	}
}

func TestHashTableGrowth(t *testing.T) {
	h := NewHashTable(2)
	n := 10000
	for i := 0; i < n; i++ {
		h.Add([]uint32{uint32(i), uint32(i * 7)}, int64(i))
	}
	for i := 0; i < n; i++ {
		if got := h.Get([]uint32{uint32(i), uint32(i * 7)}); got != int64(i) {
			t.Fatalf("key %d: got %d", i, got)
		}
	}
	if h.Len() != n {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestHashTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	h := NewHashTable(2)
	ref := map[[2]uint32]int64{}
	for epoch := 0; epoch < 10; epoch++ {
		for op := 0; op < 2000; op++ {
			k := [2]uint32{uint32(r.Intn(100)), uint32(r.Intn(100))}
			if r.Intn(3) == 0 {
				if got := h.Get(k[:]); got != ref[k] {
					t.Fatalf("get %v = %d, want %d", k, got, ref[k])
				}
			} else {
				d := int64(r.Intn(10) - 5)
				h.Add(k[:], d)
				ref[k] += d
			}
		}
		h.Clear()
		ref = map[[2]uint32]int64{}
	}
}

// TestHashTableSizeTracksLiveKeys feeds a table many epochs of a few
// live keys each, drawn from a million distinct keys: stale slots must
// be reclaimed in place, so capacity follows the live keys per epoch
// rather than every key the table has seen.
func TestHashTableSizeTracksLiveKeys(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	h := NewHashTable(2)
	for epoch := 0; epoch < 10000; epoch++ {
		live := map[[2]uint32]int64{}
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			k := [2]uint32{uint32(r.Intn(1000)), uint32(r.Intn(1000))}
			h.Add(k[:], int64(epoch))
			live[k] += int64(epoch)
		}
		for k, v := range live {
			if got := h.Get(k[:]); got != v {
				t.Fatalf("epoch %d key %v: got %d, want %d", epoch, k, got, v)
			}
		}
		h.Clear()
	}
	if h.numSlot > 64 {
		t.Fatalf("numSlot = %d after epochs of <= 4 live keys, want <= 64", h.numSlot)
	}
}

// FuzzHashTable runs a random Add/Get/Clear sequence against a Go map.
// Each op is three bytes: an opcode byte (whose high bits also spread
// the key space) and two key bytes.
func FuzzHashTable(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 30, 300, 3000} {
		seed := make([]byte, 3*n)
		r.Read(seed)
		f.Add(seed)
	}
	// One long epoch, so the table has to double.
	grow := make([]byte, 3*2000)
	r.Read(grow)
	for i := 0; i < len(grow); i += 3 {
		grow[i] |= 3
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := NewHashTable(2)
		ref := map[[2]uint32]int64{}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0], ops[1], ops[2]
			k := [2]uint32{uint32(a), uint32(b) | uint32(op>>3)<<8}
			switch op & 7 {
			case 0:
				h.Clear()
				clear(ref)
			case 1, 2:
				if got := h.Get(k[:]); got != ref[k] {
					t.Fatalf("Get(%v) = %d, want %d", k, got, ref[k])
				}
			default:
				d := int64(int8(b))
				h.Add(k[:], d)
				ref[k] += d
			}
			if h.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", h.Len(), len(ref))
			}
		}
		for k, v := range ref {
			if got := h.Get(k[:]); got != v {
				t.Fatalf("final Get(%v) = %d, want %d", k, got, v)
			}
		}
	})
}
