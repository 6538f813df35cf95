// Command decomined is the DecoMine query server daemon: it loads one
// or more graphs into a registry, points them all at one shared worker
// pool, and serves the multi-tenant HTTP/JSON query API from
// internal/server — admission control priced by the cost model,
// per-tenant instruction budgets enforced by the VM fuel check,
// fair round-robin scheduling, an epoch-keyed result cache, and
// GEO-style rewrites that compose answers from cached subpattern
// counts.
//
// Usage:
//
//	decomined [-listen :8372] -graph name=path [-graph name=path ...]
//	          [-dataset name ...] [-threads N] [-model kind]
//	          [-max-concurrent N] [-queue N] [-max-cost F]
//	          [-budget-instr N] [-cache-cap N] [-no-cache]
//	          [-trace-sample F] [-trace-cap N] [-slow-query D]
//
// Every served request runs under a trace span tree (W3C traceparent
// honored and echoed): -trace-sample sets the keep probability for
// unremarkable finished traces (error/slow/budget-exceeded traces are
// always kept — tail-based sampling), -trace-cap bounds the retention
// ring, and -slow-query sets the latency above which queries land in
// the slow-query log and traces are force-retained. Retained trees are
// served at /debug/trace/{id} and exported as OTLP/JSON at
// /debug/traces/export.
//
// SIGINT or SIGTERM stops accepting connections, lets in-flight
// requests finish, closes the graphs and the pool, and exits 0.
//
// -graph takes name=path pairs; path is an edge-list text file or a
// binary slab file (by .slab extension, served via mmap). -dataset
// loads a builtin synthetic dataset under its own name. Both flags
// repeat. The tenant limits (-queue, -max-cost, -budget-instr) apply to
// every tenant; per-tenant overrides are a Config concern for embedders
// of internal/server.
//
// Query with the X-Tenant header naming the tenant (default "default"):
//
//	curl -s localhost:8372/query -d '{"graph":"g","pattern":"0-1,1-2"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"decomine"
	"decomine/internal/obs"
	"decomine/internal/server"
)

func main() {
	listen := flag.String("listen", ":8372", "address for the query API")
	threads := flag.Int("threads", 0, "shared worker pool size (0 = GOMAXPROCS)")
	model := flag.String("model", "approx-mining", "cost model: approx-mining, locality, automine")
	maxConcurrent := flag.Int("max-concurrent", 0, "queries executing simultaneously (0 = server default)")
	queue := flag.Int("queue", 0, "per-tenant queued-query cap (0 = unlimited)")
	maxCost := flag.Float64("max-cost", 0, "reject queries priced above this by the cost model (0 = unlimited)")
	budgetInstr := flag.Int64("budget-instr", 0, "per-query VM instruction grant (0 = unlimited)")
	cacheCap := flag.Int("cache-cap", 0, "result cache capacity in entries (0 = server default)")
	noCache := flag.Bool("no-cache", false, "disable the result cache")
	traceSample := flag.Float64("trace-sample", 1, "keep probability for unremarkable request traces (error/slow traces are always kept)")
	traceCap := flag.Int("trace-cap", 0, "retained request-trace ring capacity (0 = default 256)")
	slowQuery := flag.Duration("slow-query", 0, "slow-query log latency threshold, e.g. 250ms (0 = off)")

	type graphSpec struct{ name, path, dataset string }
	var specs []graphSpec
	flag.Func("graph", "name=path of a graph to load (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		specs = append(specs, graphSpec{name: name, path: path})
		return nil
	})
	flag.Func("dataset", "builtin dataset to load under its own name (repeatable)", func(v string) error {
		specs = append(specs, graphSpec{name: v, dataset: v})
		return nil
	})
	flag.Parse()
	obs.SetTraceSampling(*traceSample)
	if *traceCap > 0 {
		obs.SetTraceTreeCap(*traceCap)
	}
	if *slowQuery > 0 {
		obs.SetSlowQueryThreshold(*slowQuery)
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "decomined: no graphs; pass -graph name=path or -dataset name")
		flag.Usage()
		os.Exit(2)
	}

	pool := decomine.NewPool(*threads)
	defer pool.Close()

	systems := make(map[string]*decomine.System, len(specs))
	for _, spec := range specs {
		if _, dup := systems[spec.name]; dup {
			fatal(fmt.Sprintf("duplicate graph name %q", spec.name))
		}
		var g *decomine.Graph
		var err error
		switch {
		case spec.dataset != "":
			g, err = decomine.Dataset(spec.dataset)
		case strings.HasSuffix(spec.path, ".slab"):
			g, err = decomine.OpenMappedGraph(spec.path)
		default:
			g, err = decomine.LoadGraph(spec.path)
		}
		fatalIf(err)
		defer g.Close()
		fmt.Fprintf(os.Stderr, "graph %q: %s\n", spec.name, g)
		sys := decomine.NewSystem(g, decomine.Options{
			CostModel:  decomine.CostModelKind(*model),
			SharedPool: pool,
		})
		defer sys.Close()
		systems[spec.name] = sys
	}

	tenant := server.TenantConfig{
		MaxEstimatedCost: *maxCost,
		MaxInstructions:  *budgetInstr,
		MaxQueued:        *queue,
	}
	srv, err := server.New(server.Config{
		Systems:       systems,
		MaxConcurrent: *maxConcurrent,
		DefaultTenant: tenant,
		CacheCap:      *cacheCap,
		DisableCache:  *noCache,
	})
	fatalIf(err)

	ln, err := net.Listen("tcp", *listen)
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "decomined: %d graph(s), pool=%d, listening on http://%s\n",
		len(systems), pool.Size(), ln.Addr())
	fatalIf(serveUntilSignal(server.NewHTTPServer(srv.Handler()), ln))
	fmt.Fprintln(os.Stderr, "decomined: drained, shutting down")
}

// serveUntilSignal serves hs on ln until SIGINT or SIGTERM, then lets
// in-flight requests finish (Shutdown) and returns, so main's deferred
// System, Pool and Graph closes run. A second signal kills the process.
func serveUntilSignal(hs *http.Server, ln net.Listener) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop()
		drained <- hs.Shutdown(context.Background())
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-drained
}

func fatalIf(err error) {
	if err != nil {
		fatal(err.Error())
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "decomined:", msg)
	os.Exit(1)
}
