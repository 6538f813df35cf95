package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"decomine"
)

// newTestServer builds a server over one GNP graph named "g" (labeled
// when labels > 0), returning the server and its HTTP front.
func newTestServer(t *testing.T, labels int, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	g := decomine.GenerateGNP(90, 0.08, 1234)
	if labels > 0 {
		g = g.WithRandomLabels(labels, 77)
	}
	sys := decomine.NewSystem(g, decomine.Options{Threads: 2, CostModel: decomine.CostLocality})
	t.Cleanup(sys.Close)
	cfg := Config{Systems: map[string]*decomine.System{"g": sys}}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery issues a query as tenant and decodes the reply.
func postQuery(t *testing.T, ts *httptest.Server, tenant, body string) (queryResponse, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(body))
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
	var resp queryResponse
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	return resp, httpResp.StatusCode
}

// TestServeCacheAndRewrite is the unit-level pin of the CI smoke
// invariant: the second identical query is a cache hit, a vertex-
// induced query over cached edge-induced counts is answered by rewrite
// without executing, and the rewritten count is bit-identical to direct
// execution.
func TestServeCacheAndRewrite(t *testing.T) {
	s, ts := newTestServer(t, 0, nil)

	r1, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2"}`)
	if code != 200 || r1.Cached || r1.Rewritten || r1.ExecutedSubqueries != 1 {
		t.Fatalf("first chain-3: code=%d resp=%+v", code, r1)
	}
	r2, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2"}`)
	if code != 200 || !r2.Cached || r2.Count != r1.Count || r2.ExecutedSubqueries != 0 {
		t.Fatalf("repeat chain-3: code=%d resp=%+v (want cache hit with count %d)", code, r2, r1.Count)
	}
	r3, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2,2-0"}`)
	if code != 200 || r3.Cached || r3.Rewritten {
		t.Fatalf("triangle: code=%d resp=%+v", code, r3)
	}
	// chain-3 and triangle edge-induced counts are cached; vertex-induced
	// chain-3 = ei(chain-3) - 3*ei(triangle) must now be a pure rewrite.
	r4, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2","induced":true}`)
	if code != 200 || !r4.Rewritten || r4.Cached || r4.ExecutedSubqueries != 0 {
		t.Fatalf("vi chain-3: code=%d resp=%+v (want pure rewrite)", code, r4)
	}
	if want := r1.Count - 3*r3.Count; r4.Count != want {
		t.Fatalf("vi chain-3 composed %d, identity says %d", r4.Count, want)
	}
	direct, err := s.graphs["g"].sys.GetPatternCountVertexInduced(decomine.MustParsePattern("0-1,1-2"))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Count != direct {
		t.Fatalf("vi chain-3 rewrite %d != direct execution %d", r4.Count, direct)
	}
	// Second vi query is a plain cache hit.
	r5, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2","induced":true}`)
	if code != 200 || !r5.Cached || r5.Count != r4.Count {
		t.Fatalf("repeat vi chain-3: code=%d resp=%+v", code, r5)
	}
}

// TestServeDisconnectedPattern checks that the server answers a
// disconnected pattern — which the library itself cannot execute — by
// the empty-cut decomposition identity, reusing cached components.
func TestServeDisconnectedPattern(t *testing.T) {
	_, ts := newTestServer(t, 0, nil)

	// Two disjoint edges: needs are the single edge (executed) and the
	// quotient patterns; the chain-3 quotient comes from merging one
	// endpoint of each edge.
	r1, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,2-3"}`)
	if code != 200 || r1.Cached || r1.Rewritten || r1.ExecutedSubqueries == 0 {
		t.Fatalf("disconnected first: code=%d resp=%+v", code, r1)
	}
	// Sanity: edges m, disjoint edge pairs = C(m,2) - paths - ... just
	// check determinism and the cache/rewrite flags on repeats.
	r2, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,2-3"}`)
	if code != 200 || !r2.Cached || r2.Count != r1.Count {
		t.Fatalf("disconnected repeat: code=%d resp=%+v", code, r2)
	}
	// A respelling of the same disconnected pattern shares the cache
	// entry via the canonical code.
	r3, code := postQuery(t, ts, "", `{"graph":"g","pattern":"2-3,0-1"}`)
	if code != 200 || !r3.Cached || r3.Count != r1.Count {
		t.Fatalf("disconnected respelling: code=%d resp=%+v", code, r3)
	}
	// With every need cached, a different disconnected pattern over the
	// same pieces composes without executing.
	r4, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2,3-4"}`)
	if code != 200 {
		t.Fatalf("path3+edge: code=%d resp=%+v", code, r4)
	}
	if r4.ExecutedSubqueries != 0 || !r4.Rewritten {
		// Needs: path-3 (cached? no — only edge, chain-3 quotient...)
		// chain-3 was cached by the quotient of the first query, and the
		// quotients here (path-4, star-3, triangle...) may not be. So
		// only assert correctness-relevant flags when it *was* pure.
		t.Logf("path3+edge executed %d subqueries (rewritten=%v)", r4.ExecutedSubqueries, r4.Rewritten)
	}
}

// TestDisconnectedMatchesBruteIdentity cross-checks the served
// disconnected count against the identity computed from served
// connected counts: copies(e ⊔ e) must satisfy
// inj = inj(e)^2 - 2*inj(chain3) - 2*inj(edge), aut = 8.
func TestDisconnectedMatchesBruteIdentity(t *testing.T) {
	_, ts := newTestServer(t, 0, nil)
	edge, _ := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1"}`)
	chain, _ := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2"}`)
	pair, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,2-3"}`)
	if code != 200 {
		t.Fatalf("pair: code=%d", code)
	}
	injEdge := 2 * edge.Count   // aut(edge) = 2
	injChain := 2 * chain.Count // aut(path-3) = 2
	// Merge partitions of two disjoint edges: four single-vertex merges
	// (each yields path-3), two double merges (each yields the single
	// edge after parallel-edge collapse).
	inj := injEdge*injEdge - 4*injChain - 2*injEdge
	if want := inj / 8; pair.Count != want { // aut(e ⊔ e) = 2*2*2
		t.Fatalf("disjoint edge pair served %d, identity gives %d", pair.Count, want)
	}
}

// TestEpochBumpInvalidates: bumping the graph epoch makes previously
// cached entries unreachable.
func TestEpochBumpInvalidates(t *testing.T) {
	_, ts := newTestServer(t, 0, nil)
	r1, _ := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2"}`)
	r2, _ := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2"}`)
	if !r2.Cached {
		t.Fatalf("pre-bump repeat not cached: %+v", r2)
	}
	httpResp, err := http.Post(ts.URL+"/graphs/g/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != 200 {
		t.Fatalf("epoch bump status %d", httpResp.StatusCode)
	}
	r3, _ := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2"}`)
	if r3.Cached {
		t.Fatalf("post-bump query served stale cache: %+v", r3)
	}
	if r3.Epoch != r1.Epoch+1 {
		t.Fatalf("epoch %d, want %d", r3.Epoch, r1.Epoch+1)
	}
	if r3.Count != r1.Count {
		t.Fatalf("same immutable graph, counts %d vs %d", r3.Count, r1.Count)
	}
}

// TestAdmissionControl: a tenant with a tiny cost ceiling is rejected
// up front; a tenant with a tiny instruction grant is cut off by the
// VM fuel check; an unrestricted tenant succeeds.
func TestAdmissionControl(t *testing.T) {
	// A graph big enough that a chain-4 count runs well past one
	// 2^14-instruction fuel window, so the starved tenant's grant is
	// actually observed mid-run.
	g := decomine.GenerateGNP(400, 0.05, 4321)
	sys := decomine.NewSystem(g, decomine.Options{Threads: 2, CostModel: decomine.CostLocality})
	defer sys.Close()
	s, err := New(Config{
		Systems: map[string]*decomine.System{"g": sys},
		Tenants: map[string]TenantConfig{
			"pricecapped": {MaxEstimatedCost: 1e-12},
			"starved":     {MaxInstructions: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, code := postQuery(t, ts, "pricecapped", `{"graph":"g","pattern":"0-1,1-2,2-0"}`); code != http.StatusTooManyRequests {
		t.Fatalf("price-capped tenant: status %d, want 429", code)
	}
	if _, code := postQuery(t, ts, "starved", `{"graph":"g","pattern":"0-1,1-2,2-3"}`); code != http.StatusTooManyRequests {
		t.Fatalf("instruction-starved tenant: status %d, want 429", code)
	}
	if resp, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2,2-0"}`); code != 200 || resp.Count < 0 {
		t.Fatalf("unrestricted tenant: status %d resp=%+v", code, resp)
	}
}

// TestConstraintQueries: constrained counts work over HTTP and differ
// from unconstrained ones under their own cache entries.
func TestConstraintQueries(t *testing.T) {
	_, ts := newTestServer(t, 2, nil)
	plain, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,1-2"}`)
	if code != 200 {
		t.Fatalf("plain: %d", code)
	}
	consBody := `{"graph":"g","pattern":"0-1,1-2","constraints":[{"kind":"all-different","vertices":[0,1,2]}]}`
	c1, code := postQuery(t, ts, "", consBody)
	if code != 200 || c1.Cached {
		t.Fatalf("constrained first: code=%d resp=%+v (must not hit the unconstrained entry)", code, c1)
	}
	c2, code := postQuery(t, ts, "", consBody)
	if code != 200 || !c2.Cached || c2.Count != c1.Count {
		t.Fatalf("constrained repeat: code=%d resp=%+v", code, c2)
	}
	// With only 2 labels, 3 pairwise-different vertices are impossible.
	if c1.Count != 0 {
		t.Fatalf("all-different over 2 labels counted %d, want 0", c1.Count)
	}
	if plain.Count == 0 {
		t.Fatal("unconstrained count is 0; fixture too sparse to be meaningful")
	}
}

// TestGraphsAndHealth covers the registry endpoints.
func TestGraphsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, 0, nil)
	httpResp, err := http.Get(ts.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []graphInfo
	if err := json.NewDecoder(httpResp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "g" || infos[0].Vertices != 90 {
		t.Fatalf("graphs listing: %+v", infos)
	}
	httpResp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != 200 {
		t.Fatalf("healthz status %d", httpResp.StatusCode)
	}
	if _, code := postQuery(t, ts, "", `{"graph":"nope","pattern":"0-1"}`); code != http.StatusNotFound {
		t.Fatalf("unknown graph status %d, want 404", code)
	}
	if _, code := postQuery(t, ts, "", `{"graph":"g","pattern":"0-1,2-3","induced":true}`); code != http.StatusBadRequest {
		t.Fatalf("vi of disconnected pattern: status %d, want 400", code)
	}
}

// TestNewHTTPServer pins the listener contract: header-read and idle
// timeouts set, no write timeout (long counts are legitimate), and a
// Shutdown that lets Serve return ErrServerClosed after serving.
func TestNewHTTPServer(t *testing.T) {
	s, _ := newTestServer(t, 0, nil)
	hs := NewHTTPServer(s.Handler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Fatalf("timeouts: read-header %v idle %v write %v", hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
	if err := hs.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestBodyLimit: /query and /queries/batch read at most maxBodyBytes of
// request body. A body of exactly the limit (a valid request padded
// with leading whitespace) is served; one byte more is answered 413 in
// the JSON error shape.
func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, 0, nil)
	for _, ep := range []struct{ path, body string }{
		{"/query", `{"graph":"g","pattern":"0-1,1-2"}`},
		{"/queries/batch", `{"graph":"g","patterns":["0-1,1-2","0-1,1-2,2-0"]}`},
	} {
		for _, size := range []int{maxBodyBytes, maxBodyBytes + 1} {
			body := strings.Repeat(" ", size-len(ep.body)) + ep.body
			resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var reply map[string]any
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s, %d-byte body: reply is not JSON: %v", ep.path, size, err)
			}
			want := http.StatusOK
			if size > maxBodyBytes {
				want = http.StatusRequestEntityTooLarge
				if msg, _ := reply["error"].(string); !strings.Contains(msg, "exceeds") {
					t.Fatalf("%s: 413 reply %v has no error message", ep.path, reply)
				}
			}
			if resp.StatusCode != want {
				t.Fatalf("%s, %d-byte body: status %d, want %d (%v)", ep.path, size, resp.StatusCode, want, reply)
			}
		}
	}
}
