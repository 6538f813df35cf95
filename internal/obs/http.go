package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
)

// publishOnce guards the expvar names (expvar.Publish panics on
// duplicates, and Handler may be called more than once).
var publishOnce sync.Once

// publishExpvar exposes the Default registry as an expvar variable, so
// it appears under /debug/vars next to the runtime's memstats.
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("decomine.metrics", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}

// Handler returns the observability endpoint mux:
//
//	/metrics            flat text dump of the Default registry
//	                    (histograms in Prometheus bucket form)
//	/debug/vars         expvar (includes decomine.metrics)
//	/debug/trace/{id}   one retained request-trace span tree by its
//	                    32-hex-digit W3C trace ID
//	/debug/traces/export  every retained request trace as OTLP/JSON
//	                    (drops into Jaeger / Grafana Tempo ingest)
//	/debug/profile      accumulated VM sampling profile: flame-style
//	                    JSON by default, ?format=pprof for a gzipped
//	                    pprof protobuf dump
//	/debug/queries      in-flight queries with progress fraction + ETA
//	/debug/queries/cancel?id=N  POST: abort a cancelable in-flight query
//	/debug/slowqueries  the slow-query log (plan, profile, kernel mix)
//	/debug/pprof/*      the standard pprof profiles
func Handler() http.Handler {
	publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var sb strings.Builder
		Default.Snapshot().WriteText(&sb)
		_, _ = w.Write([]byte(sb.String()))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		tree := TraceByID(r.PathValue("id"))
		if tree == nil {
			http.Error(w, `{"error":"unknown trace id"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tree)
	})
	mux.HandleFunc("/debug/traces/export", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(ExportOTLP())
	})
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, r *http.Request) {
		p := GlobalProfile()
		if r.URL.Query().Get("format") == "pprof" {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", `attachment; filename="decomine.vm.pb.gz"`)
			_ = p.WritePprof(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			*Profile
			Flame *FlameNode `json:"flame"`
		}{p, p.Flame()})
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(LiveQueries())
	})
	mux.HandleFunc("/debug/queries/cancel", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad or missing id", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if !CancelQuery(id) {
			w.WriteHeader(http.StatusNotFound)
			_, _ = w.Write([]byte(`{"canceled":false}` + "\n"))
			return
		}
		_, _ = w.Write([]byte(`{"canceled":true}` + "\n"))
	})
	mux.HandleFunc("/debug/slowqueries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(SlowQueries())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
