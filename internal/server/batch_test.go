package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"decomine"
)

// postBatch issues a batch as tenant and decodes the reply.
func postBatch(t *testing.T, ts *httptest.Server, tenant, body string) (batchResponse, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/queries/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp batchResponse
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	return resp, httpResp.StatusCode
}

// TestBatchEndpointParity is the HTTP-level pin of the batch smoke
// invariant: an induced batch over overlapping motif classes shares
// subqueries, its counts are bit-identical to per-pattern /query
// answers, a repeat batch is served from the result cache, and batch
// members become single-query cache hits.
func TestBatchEndpointParity(t *testing.T) {
	_, ts := newTestServer(t, 0, nil)
	body := `{"graph":"g","patterns":["0-1,1-2","0-1,1-2,2-0","clique-4","star-4"],"induced":true}`

	b1, code := postBatch(t, ts, "", body)
	if code != 200 {
		t.Fatalf("first batch: status %d", code)
	}
	if b1.Batch.Patterns != 4 || len(b1.Counts) != 4 {
		t.Fatalf("first batch shape: %+v", b1)
	}
	if b1.Batch.SharedHits <= 0 {
		t.Fatalf("induced batch over overlapping classes reported %d shared hits, want > 0", b1.Batch.SharedHits)
	}
	if b1.Batch.Subqueries == 0 || b1.Batch.Instructions == 0 {
		t.Fatalf("cold batch executed nothing: %+v", b1.Batch)
	}

	// Per-pattern /query answers must agree bit-for-bit.
	for i, pat := range []string{"0-1,1-2", "0-1,1-2,2-0", "clique-4", "star-4"} {
		r, code := postQuery(t, ts, "", `{"graph":"g","pattern":"`+pat+`","induced":true}`)
		if code != 200 {
			t.Fatalf("single %s: status %d", pat, code)
		}
		if r.Count != b1.Counts[i].Count {
			t.Fatalf("%s: batch %d, single query %d", pat, b1.Counts[i].Count, r.Count)
		}
		if !r.Cached {
			t.Errorf("%s: single query after batch was not a cache hit (%+v)", pat, r)
		}
	}

	// Repeat batch: every need is in the result cache, nothing executes.
	b2, code := postBatch(t, ts, "", body)
	if code != 200 {
		t.Fatalf("repeat batch: status %d", code)
	}
	if b2.Batch.Subqueries != 0 || b2.Batch.CacheHits == 0 {
		t.Fatalf("repeat batch should be pure cache: %+v", b2.Batch)
	}
	for i := range b1.Counts {
		if b2.Counts[i].Count != b1.Counts[i].Count {
			t.Fatalf("%s: repeat batch %d != first %d",
				b1.Counts[i].Pattern, b2.Counts[i].Count, b1.Counts[i].Count)
		}
	}
}

// TestBatchEndpointEdgeInduced covers the edge-induced path and the
// epoch keying: a bump invalidates batch-populated entries.
func TestBatchEndpointEdgeInduced(t *testing.T) {
	_, ts := newTestServer(t, 0, nil)
	body := `{"graph":"g","patterns":["0-1,1-2","0-1,1-2,2-0","cycle-4"]}`
	b1, code := postBatch(t, ts, "", body)
	if code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	for i, pat := range []string{"0-1,1-2", "0-1,1-2,2-0", "cycle-4"} {
		r, code := postQuery(t, ts, "", `{"graph":"g","pattern":"`+pat+`"}`)
		if code != 200 || r.Count != b1.Counts[i].Count {
			t.Fatalf("%s: batch %d vs single %d (status %d)", pat, b1.Counts[i].Count, r.Count, code)
		}
	}
	httpResp, err := http.Post(ts.URL+"/graphs/g/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	b2, code := postBatch(t, ts, "", body)
	if code != 200 {
		t.Fatalf("post-bump batch: status %d", code)
	}
	if b2.Batch.CacheHits != 0 {
		t.Fatalf("post-bump batch hit stale cache entries: %+v", b2.Batch)
	}
	if b2.Epoch != b1.Epoch+1 {
		t.Fatalf("epoch %d, want %d", b2.Epoch, b1.Epoch+1)
	}
	for i := range b1.Counts {
		if b2.Counts[i].Count != b1.Counts[i].Count {
			t.Fatalf("immutable graph, counts drifted: %d vs %d", b2.Counts[i].Count, b1.Counts[i].Count)
		}
	}
}

// TestBatchAdmission: tenant budgets cover the whole batch — one price
// for the residual execution set, one shared instruction grant.
func TestBatchAdmission(t *testing.T) {
	_, ts := newTestServer(t, 0, func(cfg *Config) {
		cfg.Tenants = map[string]TenantConfig{
			"pricecapped": {MaxEstimatedCost: 1e-12},
			"starved":     {MaxInstructions: 1},
		}
	})
	body := `{"graph":"g","patterns":["0-1,1-2","0-1,1-2,2-0"]}`
	if _, code := postBatch(t, ts, "pricecapped", body); code != http.StatusTooManyRequests {
		t.Fatalf("price-capped batch: status %d, want 429", code)
	}
	if b, code := postBatch(t, ts, "", body); code != 200 || len(b.Counts) != 2 {
		t.Fatalf("unrestricted batch: status %d resp=%+v", code, b)
	}
	if _, code := postBatch(t, ts, "", `{"graph":"g","patterns":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	if _, code := postBatch(t, ts, "", `{"graph":"nope","patterns":["0-1"]}`); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", code)
	}
}

// TestBatchFuelGrant: the per-tenant instruction grant is shared by the
// whole batch and cuts it off mid-run (429). The graph is sized so the
// subqueries run well past one engine fuel window on each worker
// (~196k instructions over two workers): the batch's cleaned bytecode
// executes about half the instructions of TestAdmissionControl's single
// chain-4 query, so it needs a larger graph than that test.
func TestBatchFuelGrant(t *testing.T) {
	g := decomine.GenerateGNP(800, 0.05, 4321)
	sys := decomine.NewSystem(g, decomine.Options{Threads: 2, CostModel: decomine.CostLocality})
	defer sys.Close()
	s, err := New(Config{
		Systems: map[string]*decomine.System{"g": sys},
		Tenants: map[string]TenantConfig{"starved": {MaxInstructions: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"graph":"g","patterns":["0-1,1-2,2-3","0-1,1-2,2-0"]}`
	if _, code := postBatch(t, ts, "starved", body); code != http.StatusTooManyRequests {
		t.Fatalf("instruction-starved batch: status %d, want 429", code)
	}
	if b, code := postBatch(t, ts, "", body); code != 200 || len(b.Counts) != 2 {
		t.Fatalf("unrestricted batch: status %d resp=%+v", code, b)
	}
}
