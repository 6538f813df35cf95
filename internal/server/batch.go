package server

import (
	"fmt"
	"net/http"
	"time"

	"decomine"
	"decomine/internal/obs"
)

var obsBatchRequests = obs.Default.Counter("server.batch_requests")

// batchRequest is the POST /queries/batch body: one graph, many
// patterns, answered as a single batch with cross-query subpattern
// sharing. Every pattern is counted with the same semantics (Induced);
// label constraints are not batched — use POST /query for those.
type batchRequest struct {
	// Graph names the target graph; may be empty when exactly one graph
	// is loaded.
	Graph string `json:"graph"`
	// Patterns are edge lists ("0-1,1-2,2-0") or named patterns
	// ("clique-4", ...), one batch member each.
	Patterns []string `json:"patterns"`
	// Induced selects vertex-induced counting for every member.
	Induced bool `json:"induced"`
}

// batchCount is one member's answer, in request order.
type batchCount struct {
	Pattern string `json:"pattern"`
	Count   int64  `json:"count"`
	// Instructions is the member's own subquery execution cost (0 when
	// that subquery was shared with another member or served from the
	// result cache).
	Instructions int64 `json:"instructions"`
}

// batchStats is the batch-level accounting block of the reply.
type batchStats struct {
	Patterns     int   `json:"patterns"`
	Subqueries   int   `json:"subqueries"`
	SharedHits   int64 `json:"shared_hits"`
	CacheHits    int64 `json:"cache_hits"`
	Harvested    int64 `json:"harvested"`
	Instructions int64 `json:"instructions"`
}

// batchResponse is the POST /queries/batch reply.
type batchResponse struct {
	Graph   string `json:"graph"`
	Epoch   uint64 `json:"epoch"`
	Induced bool   `json:"induced"`
	Tenant  string `json:"tenant"`
	// TraceID is the request's W3C trace ID (see queryResponse.TraceID).
	TraceID       string       `json:"trace_id"`
	Counts        []batchCount `json:"counts"`
	Batch         batchStats   `json:"batch"`
	EstimatedCost float64      `json:"estimated_cost"`
	ElapsedNS     int64        `json:"elapsed_ns"`
}

// epochCache adapts the server's result cache to decomine.BatchCache
// for one (graph, epoch): batch subcounts are unconstrained edge-induced
// counts of connected patterns, exactly the needKey discipline the GEO
// rewrite path uses, so batches and single queries share entries.
type epochCache struct {
	cache *resultCache
	graph string
	epoch uint64
}

func (c *epochCache) key(code string) cacheKey {
	return cacheKey{graph: c.graph, epoch: c.epoch, code: code}
}

func (c *epochCache) Lookup(code string) (int64, bool) { return c.cache.get(c.key(code)) }

func (c *epochCache) Store(code string, count int64) { c.cache.put(c.key(code), count) }

// handleBatch wraps the batch body in a request trace span (see
// handleQuery): the tree covers admission, cache lookup, planning, and
// every dependency wave with its per-subquery execution spans.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	span := obs.StartSpanContext("http.batch", r.Header.Get("traceparent"))
	w.Header().Set("Traceparent", span.TraceParent())
	err := s.serveBatch(w, r, span)
	span.EndErr(err)
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, span *obs.Span) error {
	begin := time.Now()
	obsBatchRequests.Inc()
	var req batchRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	if len(req.Patterns) == 0 {
		err := fmt.Errorf("server: batch has no patterns")
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	span.SetTenant(tenant)
	span.SetAttr("patterns", int64(len(req.Patterns)))
	tc := s.tenantConfig(tenant)
	entry, err := s.entry(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return err
	}
	pats := make([]*decomine.Pattern, len(req.Patterns))
	for i, spec := range req.Patterns {
		p, err := parseQueryPattern(&queryRequest{Pattern: spec})
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return err
		}
		pats[i] = p
	}

	epoch := entry.epoch.Load()
	opts := decomine.BatchOpts{
		Induced: req.Induced,
		Fuel:    grantFuel(tc),
		Span:    span,
	}
	if !s.cfg.DisableCache {
		opts.Cache = &epochCache{cache: s.cache, graph: entry.name, epoch: epoch}
	}
	// Admission covers the whole batch: one price for the residual
	// execution set (after intra-batch dedup and cache hits), one
	// scheduler slot, one tenant-grant fuel counter shared by every
	// subquery. On rejection admit has written the HTTP response, which
	// the error path below must not duplicate.
	admitWrote := false
	opts.Admit = func(price float64) (func(), error) {
		release, err := s.admit(w, r, tc, tenant, price, span)
		if err != nil {
			admitWrote = true
		}
		return release, err
	}

	br, err := entry.sys.CountPatterns(pats, opts)
	if err != nil {
		if !admitWrote {
			writeQueryError(w, err)
		}
		return err
	}

	resp := &batchResponse{
		Graph:   entry.name,
		Epoch:   epoch,
		Induced: req.Induced,
		Tenant:  tenant,
		TraceID: span.TraceID(),
		Counts:  make([]batchCount, len(pats)),
		Batch: batchStats{
			Patterns:     br.Stats.Patterns,
			Subqueries:   br.Stats.Subqueries,
			SharedHits:   br.Stats.SharedHits,
			CacheHits:    br.Stats.CacheHits,
			Harvested:    br.Stats.Harvested,
			Instructions: br.Stats.Instructions,
		},
		EstimatedCost: br.Stats.EstimatedCost,
	}
	for i, p := range pats {
		resp.Counts[i] = batchCount{
			Pattern:      p.String(),
			Count:        br.Results[i].Count,
			Instructions: br.Results[i].Stats.Exec.Instructions,
		}
		// Composed member answers are cacheable under the member's own
		// (code, induced) key, so subsequent single queries hit directly.
		if !s.cfg.DisableCache {
			s.cache.put(cacheKey{
				graph:   entry.name,
				epoch:   epoch,
				code:    p.CanonicalCode(),
				induced: req.Induced,
			}, br.Results[i].Count)
		}
	}
	tenantCounter("batch_queries", tenant).Inc()
	tenantCounter("batch_shared_hits", tenant).Add(br.Stats.SharedHits)
	tenantCounter("fuel_spent", tenant).Add(br.Stats.Instructions)
	resp.ElapsedNS = time.Since(begin).Nanoseconds()
	writeJSON(w, http.StatusOK, resp)
	return nil
}
