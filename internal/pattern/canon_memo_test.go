package pattern

import (
	"math/rand"
	"sync"
	"testing"
)

// respell returns p with its vertices randomly permuted and, half of the
// time, random labels from a three-label alphabet (wildcards included).
func respell(p *Pattern, r *rand.Rand) *Pattern {
	q := p.Relabel(r.Perm(p.NumVertices()))
	if r.Intn(2) == 0 {
		for v := 0; v < q.NumVertices(); v++ {
			if l := r.Intn(4); l < 3 {
				q.SetLabel(v, uint32(l))
			}
		}
	}
	return q
}

func memoLen() int {
	canonMemo.RLock()
	defer canonMemo.RUnlock()
	return len(canonMemo.m)
}

func TestCanonicalMemoMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 1; k <= 6; k++ {
		for _, p := range ConnectedPatterns(k) {
			for i := 0; i < 4; i++ {
				q := respell(p, r)
				want := q.canonical()
				// The first call may fill the memo, the second must hit it.
				for call := 0; call < 2; call++ {
					if got := q.Canonical(); got != want {
						t.Fatalf("%s call %d: memoized code %q, uncached %q", q, call, got, want)
					}
				}
			}
		}
	}
}

func TestCanonicalAfterMutation(t *testing.T) {
	p := Chain(4)
	chain := p.Canonical()
	p.AddEdge(0, 3)
	if got := p.Canonical(); got == chain || got != Cycle(4).Canonical() || got != p.canonical() {
		t.Fatalf("after AddEdge: code %q (chain %q, cycle %q)", got, chain, Cycle(4).Canonical())
	}
	cycle := p.Canonical()
	p.SetLabel(2, 7)
	if got := p.Canonical(); got == cycle || got != p.canonical() {
		t.Fatalf("after SetLabel: code %q, unlabeled %q, uncached %q", got, cycle, p.canonical())
	}
	p.SetLabel(2, NoLabel)
	if got := p.Canonical(); got != cycle {
		t.Fatalf("after clearing the label: code %q, want %q", got, cycle)
	}
	p.RemoveEdge(0, 3)
	if got := p.Canonical(); got != chain {
		t.Fatalf("after RemoveEdge: code %q, want %q", got, chain)
	}
}

func TestCanonicalMemoClearsAtCap(t *testing.T) {
	early := []*Pattern{House(), Cycle(5), Clique(4)}
	codes := make([]Code, len(early))
	for i, p := range early {
		codes[i] = p.Canonical()
	}
	// Distinct spellings: a labeled 3-path whose middle label counts up.
	cleared := false
	for i := 0; i <= canonMemoCap; i++ {
		q := Chain(3)
		q.SetLabel(1, uint32(i))
		before := memoLen()
		if got, want := q.Canonical(), q.canonical(); got != want {
			t.Fatalf("spelling %d: memoized %q, uncached %q", i, got, want)
		}
		if n := memoLen(); n > canonMemoCap {
			t.Fatalf("memo holds %d entries, cap %d", n, canonMemoCap)
		} else if n < before {
			cleared = true
		}
	}
	if !cleared {
		t.Fatalf("memo never cleared after %d distinct spellings", canonMemoCap+1)
	}
	for i, p := range early {
		if got := p.Canonical(); got != codes[i] || got != p.canonical() {
			t.Errorf("%s after clear: %q, want %q", p, got, codes[i])
		}
	}
}

func TestCanonicalMemoConcurrent(t *testing.T) {
	pats := ConnectedPatterns(5)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				q := respell(pats[r.Intn(len(pats))], r)
				if got, want := q.Canonical(), q.canonical(); got != want {
					errs <- string(got) + " != " + string(want)
					return
				}
			}
		}(int64(w))
	}
	// A writer of fresh spellings that pushes the memo through a clear
	// while the readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i <= canonMemoCap; i++ {
			q := Chain(2)
			q.SetLabel(0, uint32(i))
			q.Canonical()
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
