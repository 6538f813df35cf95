package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decomine"
	"decomine/internal/decomp"
	"decomine/internal/obs"
	"decomine/internal/pattern"
)

// Aggregate query counter; per-tenant serving counters are labeled
// Prometheus families (server.tenant.<event>{tenant="..."}) created on
// first use.
var obsQueries = obs.Default.Counter("server.queries")

func init() {
	for family, help := range map[string]string{
		"server.tenant.queue_wait_ns":     "Nanoseconds requests spent waiting for a fair-scheduler slot, per tenant.",
		"server.tenant.fuel_spent":        "VM instructions executed on behalf of a tenant's requests.",
		"server.tenant.admission_rejects": "Requests rejected by admission control (price ceiling or full queue), per tenant.",
		"server.tenant.admitted":          "Requests granted an execution slot, per tenant.",
		"server.tenant.cache_hits":        "Queries answered entirely from the result cache, per tenant.",
		"server.tenant.rewrite_hits":      "Queries composed from cached subpattern counts (GEO rewrites), per tenant.",
		"server.tenant.batch_queries":     "Batch requests served, per tenant.",
		"server.tenant.batch_shared_hits": "Batch subquery demands served without a dedicated execution, per tenant.",
	} {
		obs.Default.SetHelp(family, help)
	}
}

// maxTenantLabels caps the distinct tenant label values the per-tenant
// families export: tenants seen after the first maxTenantLabels record
// under otherTenant, so a client sending random X-Tenant values cannot
// grow /metrics without bound.
const maxTenantLabels = 256

const otherTenant = "_other"

var tenantLabels = struct {
	sync.Mutex
	seen map[string]bool
}{seen: map[string]bool{}}

func tenantCounter(event, tenant string) *obs.Counter {
	return obs.Default.LabeledCounter("server.tenant."+event, obs.Label{Key: "tenant", Value: tenantLabel(tenant)})
}

// tenantLabel is the label value tenant's counters record under.
func tenantLabel(tenant string) string {
	tenantLabels.Lock()
	defer tenantLabels.Unlock()
	if !tenantLabels.seen[tenant] {
		if len(tenantLabels.seen) >= maxTenantLabels {
			return otherTenant
		}
		tenantLabels.seen[tenant] = true
	}
	return tenant
}

// statusClientClosed mirrors the de-facto "client closed request"
// status for queries canceled mid-flight.
const statusClientClosed = 499

// queryRequest is the POST /query body.
type queryRequest struct {
	// Graph names the target graph; may be empty when exactly one graph
	// is loaded.
	Graph string `json:"graph"`
	// Pattern is an edge list ("0-1,1-2,2-0") or a named pattern
	// ("clique-4", "chain-3", ...).
	Pattern string `json:"pattern"`
	// Induced selects vertex-induced counting (edge-induced otherwise).
	Induced bool `json:"induced"`
	// Labels constrains pattern vertex i to input label Labels[i]
	// (0 = unconstrained).
	Labels []uint32 `json:"labels,omitempty"`
	// Constraints are group label constraints over pattern vertices.
	Constraints []queryConstraint `json:"constraints,omitempty"`
}

type queryConstraint struct {
	// Kind is "all-same" or "all-different".
	Kind     string `json:"kind"`
	Vertices []int  `json:"vertices"`
}

// queryResponse is the POST /query reply.
type queryResponse struct {
	Graph   string `json:"graph"`
	Epoch   uint64 `json:"epoch"`
	Pattern string `json:"pattern"`
	Induced bool   `json:"induced"`
	Tenant  string `json:"tenant"`
	// TraceID is the request's W3C trace ID (from the client's
	// traceparent header when one was sent, generated otherwise); the
	// request's span tree — when retained — lives at /debug/trace/{id}.
	TraceID string `json:"trace_id"`
	Count   int64  `json:"count"`
	// Cached reports the whole answer was served from the result cache.
	Cached bool `json:"cached"`
	// Rewritten reports the answer was composed from cached subpattern
	// counts via a decomposition identity, with zero VM executions.
	Rewritten bool `json:"rewritten"`
	// ExecutedSubqueries counts the VM executions this request ran (0
	// for cache and rewrite hits; >1 when a rewrite had to fill in
	// missing subpattern counts).
	ExecutedSubqueries int `json:"executed_subqueries"`
	// Instructions totals the bytecode instructions those executions
	// spent, EstimatedCost what admission control priced the work at.
	Instructions  int64   `json:"instructions"`
	EstimatedCost float64 `json:"estimated_cost"`
	ElapsedNS     int64   `json:"elapsed_ns"`
}

func parseConstraints(in []queryConstraint) ([]decomine.LabelConstraint, error) {
	out := make([]decomine.LabelConstraint, 0, len(in))
	for _, c := range in {
		var kind decomine.ConstraintKind
		switch c.Kind {
		case "all-same":
			kind = decomine.AllSameLabel
		case "all-different":
			kind = decomine.AllDifferentLabels
		default:
			return nil, fmt.Errorf("server: unknown constraint kind %q (want all-same or all-different)", c.Kind)
		}
		if len(c.Vertices) < 2 {
			return nil, fmt.Errorf("server: constraint needs at least 2 vertices")
		}
		out = append(out, decomine.LabelConstraint{Kind: kind, Vertices: c.Vertices})
	}
	return out, nil
}

func parseQueryPattern(req *queryRequest) (*decomine.Pattern, error) {
	var p *decomine.Pattern
	var err error
	if p, err = decomine.PatternByName(req.Pattern); err != nil {
		if p, err = decomine.ParsePattern(req.Pattern); err != nil {
			return nil, err
		}
	}
	if len(req.Labels) > p.NumVertices() {
		return nil, fmt.Errorf("server: %d labels for a %d-vertex pattern", len(req.Labels), p.NumVertices())
	}
	for v, l := range req.Labels {
		if l != 0 {
			p.SetVertexLabel(v, l)
		}
	}
	return p, nil
}

// constraintFlavor serializes constraints into the cache-key flavor.
// It embeds the pattern's own spelling: constraint vertex IDs are
// meaningful relative to the spelling the client sent, so constrained
// queries never share entries across isomorphic respellings (the
// canonical code alone would conflate them).
func constraintFlavor(p *decomine.Pattern, cons []decomine.LabelConstraint) string {
	if len(cons) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "pat:%s|cons", p)
	for _, c := range cons {
		if c.Kind == decomine.AllDifferentLabels {
			sb.WriteString(":d")
		} else {
			sb.WriteString(":s")
		}
		for _, v := range c.Vertices {
			fmt.Fprintf(&sb, ",%d", v)
		}
	}
	return sb.String()
}

// handleQuery wraps the query body in a request trace span: the root
// adopts the client's traceparent (when sent), is echoed back in the
// Traceparent response header, and — tail-retention permitting — the
// finished tree is retrievable at /debug/trace/{id}.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	span := obs.StartSpanContext("http.query", r.Header.Get("traceparent"))
	w.Header().Set("Traceparent", span.TraceParent())
	err := s.serveQuery(w, r, span)
	span.EndErr(err)
}

func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, span *obs.Span) error {
	begin := time.Now()
	obsQueries.Inc()
	var req queryRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	span.SetTenant(tenant)
	span.SetAttr("pattern", req.Pattern)
	tc := s.tenantConfig(tenant)
	entry, err := s.entry(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return err
	}
	p, err := parseQueryPattern(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	cons, err := parseConstraints(req.Constraints)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	if req.Induced && len(cons) > 0 {
		err = fmt.Errorf("server: vertex-induced counting with constraints is not supported")
		writeError(w, http.StatusBadRequest, err)
		return err
	}

	epoch := entry.epoch.Load()
	resp := &queryResponse{
		Graph:   entry.name,
		Epoch:   epoch,
		Pattern: p.String(),
		Induced: req.Induced,
		Tenant:  tenant,
		TraceID: span.TraceID(),
	}
	key := cacheKey{
		graph:   entry.name,
		epoch:   epoch,
		code:    p.CanonicalCode(),
		induced: req.Induced,
		flavor:  constraintFlavor(p, cons),
	}
	if !s.cfg.DisableCache {
		lookup := span.StartChild("cache_lookup")
		v, ok := s.cache.get(key)
		lookup.SetAttr("hit", ok)
		lookup.End()
		if ok {
			tenantCounter("cache_hits", tenant).Inc()
			resp.Count, resp.Cached = v, true
			resp.ElapsedNS = time.Since(begin).Nanoseconds()
			writeJSON(w, http.StatusOK, resp)
			return nil
		}
	}

	// The GEO rewrite layer: ask the decomposition oracle whether this
	// count is derivable from edge-induced counts of connected
	// subpatterns, then serve it from cached counts — executing only the
	// pieces the cache is missing.
	var recipe *decomp.Rewrite
	if len(cons) == 0 {
		rw, ok, err := decomp.RewriteQuery(p.Raw(), req.Induced)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return err
		}
		if ok {
			recipe = rw
		}
	}

	var count int64
	if recipe != nil {
		count, err = s.runRewrite(w, r, entry, tc, tenant, recipe, resp, span)
	} else {
		count, err = s.runDirect(w, r, entry, tc, tenant, p, cons, resp, span)
	}
	if err != nil {
		return err // runRewrite/runDirect already wrote the error response
	}
	tenantCounter("fuel_spent", tenant).Add(resp.Instructions)
	if !s.cfg.DisableCache {
		s.cache.put(key, count)
	}
	resp.Count = count
	resp.ElapsedNS = time.Since(begin).Nanoseconds()
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// needKey is the cache key of one rewrite need: always an edge-induced,
// unconstrained count of a connected pattern.
func (s *Server) needKey(entry *graphEntry, epoch uint64, q *pattern.Pattern) cacheKey {
	return cacheKey{graph: entry.name, epoch: epoch, code: string(q.Canonical())}
}

// runRewrite serves a query via its decomposition recipe: needs present
// in the result cache are reused as-is; missing needs are priced,
// admitted and executed as budgeted subqueries (and cached). A query
// whose needs were all cached never touches the VM and reports
// Rewritten. On error, the HTTP response has been written and a non-nil
// error is returned.
func (s *Server) runRewrite(w http.ResponseWriter, r *http.Request, entry *graphEntry, tc TenantConfig, tenant string, recipe *decomp.Rewrite, resp *queryResponse, span *obs.Span) (int64, error) {
	counts := map[pattern.Code]int64{}
	var missing []*pattern.Pattern
	lookup := span.StartChild("rewrite_lookup")
	for _, q := range recipe.Needs {
		if !s.cfg.DisableCache {
			if v, ok := s.cache.get(s.needKey(entry, resp.Epoch, q)); ok {
				counts[q.Canonical()] = v
				continue
			}
		}
		missing = append(missing, q)
	}
	lookup.SetAttr("needs", int64(len(recipe.Needs)))
	lookup.SetAttr("missing", int64(len(missing)))
	lookup.End()

	if len(missing) > 0 {
		var price float64
		for _, q := range missing {
			c, err := entry.sys.EstimateCost(decomine.RawPattern(q), decomine.QueryOpts{})
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return 0, err
			}
			price += c
		}
		resp.EstimatedCost = price
		release, err := s.admit(w, r, tc, tenant, price, span)
		if err != nil {
			return 0, err
		}
		defer release()
		fuel := grantFuel(tc)
		for _, q := range missing {
			res, err := entry.sys.CountPattern(decomine.RawPattern(q), decomine.QueryOpts{Fuel: fuel, Span: span})
			if err != nil {
				writeQueryError(w, err)
				return 0, err
			}
			resp.ExecutedSubqueries++
			resp.Instructions += res.Stats.Exec.Instructions
			counts[q.Canonical()] = res.Count
			if !s.cfg.DisableCache {
				s.cache.put(s.needKey(entry, resp.Epoch, q), res.Count)
			}
		}
	}

	count, err := recipe.Eval(counts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return 0, err
	}
	if len(missing) == 0 {
		resp.Rewritten = true
		tenantCounter("rewrite_hits", tenant).Inc()
	}
	return count, nil
}

// runDirect executes a connected edge-induced query (optionally
// constrained) as a single budgeted plan run; every other query has a
// rewrite recipe. On error, the HTTP response has been written.
func (s *Server) runDirect(w http.ResponseWriter, r *http.Request, entry *graphEntry, tc TenantConfig, tenant string, p *decomine.Pattern, cons []decomine.LabelConstraint, resp *queryResponse, span *obs.Span) (int64, error) {
	price, err := entry.sys.EstimateCost(p, decomine.QueryOpts{Constraints: cons})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, err
	}
	resp.EstimatedCost = price
	release, err := s.admit(w, r, tc, tenant, price, span)
	if err != nil {
		return 0, err
	}
	defer release()
	res, err := entry.sys.CountPattern(p, decomine.QueryOpts{Constraints: cons, Fuel: grantFuel(tc), Span: span})
	if err != nil {
		writeQueryError(w, err)
		return 0, err
	}
	resp.ExecutedSubqueries++
	resp.Instructions = res.Stats.Exec.Instructions
	return res.Count, nil
}

// admit enforces the tenant's price ceiling and queue cap, then blocks
// for a fair-scheduled execution slot, recording an "admission" span
// (price, queue wait) and the tenant's queue-wait telemetry. On
// rejection the HTTP response has been written and a non-nil error
// returned; on success the returned release frees the slot.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tc TenantConfig, tenant string, price float64, span *obs.Span) (func(), error) {
	adm := span.StartChild("admission")
	adm.SetAttr("price", price)
	if tc.MaxEstimatedCost > 0 && price > tc.MaxEstimatedCost {
		tenantCounter("admission_rejects", tenant).Inc()
		err := fmt.Errorf("server: estimated cost %.3g exceeds tenant ceiling %.3g", price, tc.MaxEstimatedCost)
		writeError(w, http.StatusTooManyRequests, err)
		adm.EndErr(err)
		return nil, err
	}
	release, wait, err := s.sched.acquire(r.Context(), tenant, tc.MaxQueued)
	if err != nil {
		tenantCounter("admission_rejects", tenant).Inc()
		status := http.StatusTooManyRequests
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			status = statusClientClosed
		}
		writeError(w, status, err)
		adm.EndErr(err)
		return nil, err
	}
	tenantCounter("admitted", tenant).Inc()
	tenantCounter("queue_wait_ns", tenant).Add(wait.Nanoseconds())
	span.SetQueueWait(wait)
	adm.SetAttr("queue_wait_ns", wait.Nanoseconds())
	adm.End()
	return release, nil
}

// grantFuel builds the request's shared instruction counter from the
// tenant's grant (nil = unlimited).
func grantFuel(tc TenantConfig) *atomic.Int64 {
	if tc.MaxInstructions <= 0 {
		return nil
	}
	f := new(atomic.Int64)
	f.Store(tc.MaxInstructions)
	return f
}

// writeQueryError maps execution errors to HTTP statuses: a drained
// instruction grant is a tenant-budget rejection, a canceled query a
// client-side close, anything else a server error.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, decomine.ErrBudgetExceeded):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, decomine.ErrCanceled):
		writeError(w, statusClientClosed, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
