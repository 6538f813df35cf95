// Command decomine is the CLI front door to the DecoMine system:
// pattern counting, motif censuses, FSM, constrained queries, plan
// explanation and Go code generation over edge-list graphs or the
// builtin synthetic datasets.
//
// Usage:
//
//	decomine [-graph path | -dataset name] [-threads N] [-model approx-mining|locality|automine]
//	         [-mmap] [-mem-budget size] <command> [args]
//
// -graph accepts edge-list text files or binary slab files (written by
// "graphgen -format slab" or Graph.WriteSlabFile). Slab files — detected
// by extension .slab or forced with -mmap — are served through a
// read-only mmap, so graphs larger than RAM mine out-of-core;
// -mem-budget caps the Go heap (like GOMEMLIMIT) to demonstrate or
// enforce that.
//
// Commands:
//
//	count <pattern>            edge-induced embedding count
//	count-vi <pattern>         vertex-induced embedding count
//	motifs <k>                 vertex-induced counts of all k-motifs
//	cycles <k>                 k-cycle count
//	pseudoclique <n>           pseudo-clique (missing<=1) count
//	fsm <support> <maxEdges>   frequent subgraph mining (labeled graphs)
//	explain <pattern>          show the selected algorithm
//
// To serve a graph over the HTTP query API, use cmd/decomined.
//
// <pattern> is an edge list ("0-1,1-2,2-0") or a named pattern
// (clique-4, cycle-5, chain-3, star-4, house, fig6, p1..p5).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"decomine"
	"decomine/internal/obs"
	"decomine/internal/server"
)

func main() {
	graphPath := flag.String("graph", "", "edge-list graph file (with optional .labels companion)")
	dataset := flag.String("dataset", "wk", "builtin dataset (cs ee wk mc pt lj fr rmat); ignored when -graph is set")
	threads := flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	model := flag.String("model", "approx-mining", "cost model: approx-mining, locality, automine")
	listen := flag.String("listen", "", "serve /metrics, /debug/vars, /debug/profile, /debug/queries, /debug/slowqueries and /debug/pprof on this address (e.g. :6060) while the command runs")
	profile := flag.Bool("profile", false, "arm the in-VM sampling profiler (per-run attribution at /debug/profile)")
	slowQuery := flag.Duration("slow-query", 0, "record queries slower than this in the slow-query log (0 = off)")
	mmapFlag := flag.Bool("mmap", false, "treat -graph as a binary slab file and serve it via mmap (implied by a .slab extension)")
	memBudget := flag.String("mem-budget", "", "soft Go heap limit, e.g. 32MiB or 2GiB (sets the runtime memory limit; mmap-backed graph pages are exempt)")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		flag.Usage()
		os.Exit(2)
	}

	// The observability listener installs no signal handler: Ctrl-C
	// still kills a running command.
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		fatalIf(err)
		fmt.Fprintf(os.Stderr, "observability: http://%s/metrics\n", ln.Addr())
		go func() {
			if err := server.NewHTTPServer(obs.Handler()).Serve(ln); err != nil {
				fmt.Fprintf(os.Stderr, "observability server: %v\n", err)
			}
		}()
	}

	if *slowQuery > 0 {
		obs.SetSlowQueryThreshold(*slowQuery)
	}

	if *memBudget != "" {
		limit, err := parseMemBudget(*memBudget)
		fatalIf(err)
		debug.SetMemoryLimit(limit)
		fmt.Fprintf(os.Stderr, "memory budget: %d bytes\n", limit)
	}

	g, err := loadGraph(*graphPath, *dataset, *mmapFlag)
	fatalIf(err)
	defer g.Close()
	fmt.Fprintf(os.Stderr, "graph: %s\n", g)
	sys := decomine.NewSystem(g, decomine.Options{
		Threads:   *threads,
		CostModel: decomine.CostModelKind(*model),
		Profile:   *profile,
	})
	defer sys.Close()

	switch args[0] {
	case "count", "count-vi", "explain":
		if len(args) < 2 {
			fatal("missing pattern argument")
		}
		p, err := parsePattern(args[1])
		fatalIf(err)
		switch args[0] {
		case "count":
			start := time.Now()
			c, err := sys.GetPatternCount(p)
			fatalIf(err)
			fmt.Printf("%d\t(%s)\n", c, time.Since(start).Round(time.Millisecond))
		case "count-vi":
			start := time.Now()
			c, err := sys.GetPatternCountVertexInduced(p)
			fatalIf(err)
			fmt.Printf("%d\t(%s)\n", c, time.Since(start).Round(time.Millisecond))
		case "explain":
			s, err := sys.Explain(p)
			fatalIf(err)
			fmt.Println(s)
		}
	case "motifs":
		k := atoiArg(args, 1, "k")
		start := time.Now()
		counts, err := sys.MotifCounts(k)
		fatalIf(err)
		var total int64
		for _, mc := range counts {
			fmt.Printf("%-40s %d\n", mc.Pattern, mc.Count)
			total += mc.Count
		}
		fmt.Printf("total: %d\t(%s)\n", total, time.Since(start).Round(time.Millisecond))
	case "cycles":
		k := atoiArg(args, 1, "k")
		start := time.Now()
		c, err := sys.CycleCount(k)
		fatalIf(err)
		fmt.Printf("%d\t(%s)\n", c, time.Since(start).Round(time.Millisecond))
	case "pseudoclique":
		n := atoiArg(args, 1, "n")
		start := time.Now()
		c, err := sys.PseudoCliqueCount(n, 1)
		fatalIf(err)
		fmt.Printf("%d\t(%s)\n", c, time.Since(start).Round(time.Millisecond))
	case "fsm":
		tau := int64(atoiArg(args, 1, "support"))
		maxEdges := atoiArg(args, 2, "maxEdges")
		start := time.Now()
		res, err := sys.FSM(tau, maxEdges)
		fatalIf(err)
		for _, fp := range res {
			fmt.Printf("%-40s support=%d\n", fp.Pattern, fp.Support)
		}
		fmt.Printf("%d frequent patterns\t(%s)\n", len(res), time.Since(start).Round(time.Millisecond))
	default:
		fatal(fmt.Sprintf("unknown command %q", args[0]))
	}
}

func loadGraph(path, dataset string, mmap bool) (*decomine.Graph, error) {
	if path != "" {
		if mmap || strings.HasSuffix(path, ".slab") {
			return decomine.OpenMappedGraph(path)
		}
		return decomine.LoadGraph(path)
	}
	return decomine.Dataset(dataset)
}

// parseMemBudget parses a byte size with an optional binary-unit suffix
// (KiB, MiB, GiB, or the bare forms K, M, G), mirroring GOMEMLIMIT.
func parseMemBudget(s string) (int64, error) {
	suffixes := []struct {
		text string
		mult int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1}, {"", 1},
	}
	up := strings.ToUpper(strings.TrimSpace(s))
	for _, suf := range suffixes {
		if !strings.HasSuffix(up, suf.text) || len(up) == len(suf.text) {
			continue
		}
		digits := strings.TrimSuffix(up, suf.text)
		var n int64
		if _, err := fmt.Sscanf(digits+"\n", "%d\n", &n); err != nil || n <= 0 {
			break
		}
		return n * suf.mult, nil
	}
	return 0, fmt.Errorf("bad memory budget %q (want e.g. 64MiB)", s)
}

func parsePattern(s string) (*decomine.Pattern, error) {
	if p, err := decomine.PatternByName(s); err == nil {
		return p, nil
	}
	return decomine.ParsePattern(s)
}

func atoiArg(args []string, i int, name string) int {
	if len(args) <= i {
		fatal("missing " + name + " argument")
	}
	var v int
	if _, err := fmt.Sscanf(args[i], "%d", &v); err != nil {
		fatal("bad " + name + ": " + args[i])
	}
	return v
}

func fatalIf(err error) {
	if err != nil {
		fatal(err.Error())
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "decomine:", msg)
	os.Exit(1)
}
