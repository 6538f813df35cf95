// Package server is DecoMine's multi-tenant HTTP/JSON query front
// door: a registry of named loaded graphs behind an API that prices
// every query with the cost model before admitting it,
// schedules admitted queries fairly across tenants on the shared
// worker pool, serves repeated queries from an epoch-keyed result
// cache, and answers derivable queries by GEO-style rewrites over
// cached subpattern counts (internal/decomp) without touching the VM.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"decomine"
	"decomine/internal/obs"
)

// TenantConfig bounds what one tenant (the X-Tenant request header) may
// ask of the server. The zero value means unlimited.
type TenantConfig struct {
	// MaxEstimatedCost rejects (HTTP 429) queries the cost model prices
	// above this, before any execution. 0 = unlimited.
	MaxEstimatedCost float64
	// MaxInstructions is the per-query VM instruction grant, enforced by
	// the engine's fuel check; a request's subqueries share one grant. A
	// query that drains it aborts with HTTP 429. 0 = unlimited.
	MaxInstructions int64
	// MaxQueued caps this tenant's queries waiting for an execution
	// slot; excess queries are rejected with HTTP 429. 0 = unlimited.
	MaxQueued int
}

// Config assembles a Server.
type Config struct {
	// Systems maps graph names to their mining systems. The caller
	// retains ownership: Server.Close does not close them. Point the
	// Systems at one shared decomine.Pool so all graphs mine on one set
	// of worker goroutines.
	Systems map[string]*decomine.System
	// MaxConcurrent bounds the queries executing simultaneously
	// (default 2); queued queries are granted slots round-robin across
	// tenants. Cache and rewrite hits bypass the queue entirely.
	MaxConcurrent int
	// DefaultTenant applies to tenants absent from Tenants.
	DefaultTenant TenantConfig
	// Tenants holds per-tenant overrides, keyed by X-Tenant value.
	Tenants map[string]TenantConfig
	// CacheCap bounds the result cache (entries; default 4096).
	CacheCap int
	// DisableCache turns the result cache off (every query executes).
	DisableCache bool
}

// graphEntry is one named graph: its system plus the cache epoch.
// Graphs are immutable, so the epoch only moves when an operator
// explicitly bumps it (POST /graphs/{name}/epoch) to invalidate cached
// counts — e.g. after swapping the underlying dataset file.
type graphEntry struct {
	name  string
	sys   *decomine.System
	epoch atomic.Uint64
}

// Server handles the query API. Create with New, mount Handler.
type Server struct {
	cfg    Config
	graphs map[string]*graphEntry
	cache  *resultCache
	sched  *fairSched
	obsH   http.Handler
}

// New builds a Server over cfg.Systems.
func New(cfg Config) (*Server, error) {
	if len(cfg.Systems) == 0 {
		return nil, fmt.Errorf("server: no graphs configured")
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 2
	}
	if cfg.CacheCap < 1 {
		cfg.CacheCap = 4096
	}
	s := &Server{
		cfg:    cfg,
		graphs: map[string]*graphEntry{},
		cache:  newResultCache(cfg.CacheCap),
		sched:  newFairSched(cfg.MaxConcurrent),
		obsH:   obs.Handler(),
	}
	for name, sys := range cfg.Systems {
		s.graphs[name] = &graphEntry{name: name, sys: sys}
	}
	return s, nil
}

func (s *Server) tenantConfig(tenant string) TenantConfig {
	if tc, ok := s.cfg.Tenants[tenant]; ok {
		return tc
	}
	return s.cfg.DefaultTenant
}

// entry resolves a graph name; the empty name resolves iff exactly one
// graph is loaded.
func (s *Server) entry(name string) (*graphEntry, error) {
	if name == "" {
		if len(s.graphs) == 1 {
			for _, e := range s.graphs {
				return e, nil
			}
		}
		return nil, fmt.Errorf("server: %d graphs loaded, query must name one", len(s.graphs))
	}
	e, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("server: unknown graph %q", name)
	}
	return e, nil
}

// Handler returns the API mux:
//
//	POST /query                  count a pattern (see queryRequest)
//	POST /queries/batch          count many patterns as one shared batch
//	GET  /graphs                 list loaded graphs with epochs
//	POST /graphs/{name}/epoch    bump a graph's cache epoch
//	GET  /queries                in-flight queries (alias of /debug/queries)
//	POST /queries/cancel?id=N    cancel an in-flight query
//	GET  /healthz                liveness
//	/metrics, /debug/*           the observability endpoints
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /queries/batch", s.handleBatch)
	mux.HandleFunc("GET /graphs", s.handleGraphs)
	mux.HandleFunc("POST /graphs/{name}/epoch", s.handleEpochBump)
	mux.HandleFunc("GET /queries", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, obs.LiveQueries())
	})
	mux.HandleFunc("POST /queries/cancel", func(w http.ResponseWriter, r *http.Request) {
		r.URL.Path = "/debug/queries/cancel"
		s.obsH.ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("/metrics", s.obsH)
	mux.Handle("/debug/", s.obsH)
	return mux
}

type graphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Epoch    uint64 `json:"epoch"`
	Detail   string `json:"detail"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	out := make([]graphInfo, 0, len(s.graphs))
	for _, e := range s.graphs {
		g := e.sys.Graph()
		out = append(out, graphInfo{
			Name:     e.name,
			Vertices: g.NumVertices(),
			Edges:    g.NumEdges(),
			Epoch:    e.epoch.Load(),
			Detail:   g.String(),
		})
	}
	// Deterministic listing order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Name > out[j].Name; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEpochBump(w http.ResponseWriter, r *http.Request) {
	e, err := s.entry(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"graph": e.name, "epoch": e.epoch.Add(1)})
}

// Connection timeouts of NewHTTPServer. There is deliberately no write
// timeout: a long-running count is a legitimate response.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server every DecoMine listener serves
// h with: a client that trickles its request headers is cut off after
// readHeaderTimeout, and idle keep-alive connections are closed after
// idleTimeout. Callers Serve it on their listener and drain it with
// Shutdown.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// maxBodyBytes caps a /query or /queries/batch request body: far more
// than any real pattern list needs, and it keeps one client from making
// the daemon read an unbounded stream.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v. A body longer than
// maxBodyBytes is answered with 413 and any other decoding failure with
// 400; the returned error is the one answered.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return nil
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
		err = fmt.Errorf("server: request body exceeds %d bytes", tooLarge.Limit)
	} else {
		err = fmt.Errorf("server: bad request body: %v", err)
	}
	writeError(w, status, err)
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
