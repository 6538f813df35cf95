package server

import (
	"fmt"
	"testing"

	"decomine"
)

// TestCacheKeyLabeledPatternsDistinct is the satellite pin: patterns
// that are isomorphic as unlabeled graphs but carry different label
// assignments must not collide in the result cache.
func TestCacheKeyLabeledPatternsDistinct(t *testing.T) {
	// Path-3 with labels (ends 1, center 2) vs (one end 2): same shape,
	// different isomorphism classes once labels count.
	a := decomine.MustParsePattern("0-1,1-2")
	a.SetVertexLabel(0, 1)
	a.SetVertexLabel(1, 2)
	a.SetVertexLabel(2, 1)
	b := decomine.MustParsePattern("0-1,1-2")
	b.SetVertexLabel(0, 1)
	b.SetVertexLabel(1, 1)
	b.SetVertexLabel(2, 2)
	if a.CanonicalCode() == b.CanonicalCode() {
		t.Fatal("differently-labeled path-3 variants share a canonical code")
	}
	// And a differently-spelled relabeling of a IS the same class.
	c := decomine.MustParsePattern("1-0,1-2") // same shape, center is 1
	c.SetVertexLabel(0, 1)
	c.SetVertexLabel(1, 2)
	c.SetVertexLabel(2, 1)
	if a.CanonicalCode() != c.CanonicalCode() {
		t.Fatal("isomorphic labeled respelling got a different canonical code")
	}

	// End to end: the two classes get separate cache entries with
	// different counts.
	_, ts := newTestServer(t, 2, nil)
	body := func(labels string) string {
		return fmt.Sprintf(`{"graph":"g","pattern":"0-1,1-2","labels":%s}`, labels)
	}
	ra, _ := postQuery(t, ts, "", body("[1,2,1]"))
	rb, code := postQuery(t, ts, "", body("[1,1,2]"))
	if code != 200 || rb.Cached {
		t.Fatalf("second labeling must not hit the first labeling's entry: %+v", rb)
	}
	ra2, _ := postQuery(t, ts, "", body("[1,2,1]"))
	if !ra2.Cached || ra2.Count != ra.Count {
		t.Fatalf("identical labeling should hit: %+v (first %+v)", ra2, ra)
	}
}

// TestCacheKeyConstraintSpellings pins the subtle flavor rule: the same
// canonical code with constraints attached to different spellings must
// not share an entry, because constraint vertex IDs are relative to the
// spelling.
func TestCacheKeyConstraintSpellings(t *testing.T) {
	_, ts := newTestServer(t, 3, nil)
	// "0-1,1-2" has center 1; "1-0,0-2" (edges 0-1, 0-2) has center 0.
	// Constraining {0,1} pins {end, center} in the first spelling but
	// {center, end} in the second — same canonical code, same constraint
	// text, potentially different counts. They must get separate cache
	// entries.
	q1 := `{"graph":"g","pattern":"0-1,1-2","constraints":[{"kind":"all-same","vertices":[0,2]}]}`
	q2 := `{"graph":"g","pattern":"1-0,0-2","constraints":[{"kind":"all-same","vertices":[0,2]}]}`
	r1, code := postQuery(t, ts, "", q1)
	if code != 200 {
		t.Fatalf("q1: %d", code)
	}
	r2, code := postQuery(t, ts, "", q2)
	if code != 200 || r2.Cached {
		t.Fatalf("different spelling with constraints must not share the entry: %+v", r2)
	}
	r1b, _ := postQuery(t, ts, "", q1)
	if !r1b.Cached || r1b.Count != r1.Count {
		t.Fatalf("identical constrained query should hit: %+v", r1b)
	}
}

// TestServedConstrainedRespelling: the library's plan cache under the
// result cache keys constrained plans by spelling as well, so a
// respelled constrained query is answered as on a fresh server, not
// with the plan compiled for the first spelling's vertex numbering.
func TestServedConstrainedRespelling(t *testing.T) {
	cases := []struct{ first, respelled string }{
		{"0-1,1-2", "1-0,0-2"},
		{"0-1,1-2,2-3", "1-0,0-2,2-3"},
	}
	for _, tc := range cases {
		body := func(p string) string {
			return `{"graph":"g","pattern":"` + p + `","constraints":[{"kind":"all-same","vertices":[1,2]}]}`
		}
		_, fresh := newTestServer(t, 3, nil)
		want, code := postQuery(t, fresh, "", body(tc.respelled))
		if code != 200 {
			t.Fatalf("%s on a fresh server: %d", tc.respelled, code)
		}
		_, shared := newTestServer(t, 3, nil)
		if _, code := postQuery(t, shared, "", body(tc.first)); code != 200 {
			t.Fatalf("%s: %d", tc.first, code)
		}
		got, code := postQuery(t, shared, "", body(tc.respelled))
		if code != 200 || got.Cached || got.Count != want.Count {
			t.Errorf("%s after %s: %+v (status %d), fresh server counted %d", tc.respelled, tc.first, got, code, want.Count)
		}
	}
}

// TestResultCacheEviction pins the FIFO capacity bound.
func TestResultCacheEviction(t *testing.T) {
	c := newResultCache(2)
	k := func(i int) cacheKey { return cacheKey{graph: "g", code: fmt.Sprint(i)} }
	c.put(k(1), 10)
	c.put(k(2), 20)
	c.put(k(3), 30)
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
	if _, ok := c.get(k(1)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if v, ok := c.get(k(3)); !ok || v != 30 {
		t.Fatalf("newest entry missing: %v %v", v, ok)
	}
	// Re-putting an existing key neither duplicates nor evicts.
	c.put(k(3), 30)
	if c.len() != 2 {
		t.Fatalf("cache len %d after idempotent put, want 2", c.len())
	}
}
