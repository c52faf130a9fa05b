// Command dserver hosts a resident clustering service: it ingests a graph,
// partitions and solves it once, then keeps the world of ranks alive to
// answer queries and absorb edge updates through incremental re-clustering
// (docs/SERVING.md).
//
// Usage:
//
//	dserver -gen caveman:cliques=50,size=10 -p 4
//	dserver -graph web.sbin -p 8 -listen :7600 -auto-resolve
//	echo "community 17" | dserver -graph web.txt -p 4
//
// With no -listen the protocol runs over stdin/stdout, one request per
// line; with -listen the same protocol is served to every TCP connection.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dserver"
	"repro/internal/gen"
	"repro/internal/partition"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "path to an edge-list (.txt), binary (.bin), or sharded binary (.sbin) graph file")
		genSpec     = flag.String("gen", "", "generator spec, e.g. caveman:cliques=50,size=10 (see internal/gen.ParseSpec)")
		p           = flag.Int("p", 4, "number of resident ranks")
		dhigh       = flag.Int("dhigh", 0, "hub degree threshold (0 = automatic)")
		heuristic   = flag.String("heuristic", "enhanced", "convergence heuristic: enhanced|simple|strict")
		partitioner = flag.String("partitioning", "delegate", "partitioning: delegate|1d")
		listen      = flag.String("listen", "", "serve the line protocol on this TCP address instead of stdin/stdout")
		autoResolve = flag.Bool("auto-resolve", false, "run the full-solve fallback inside the update call when drift crosses a threshold")
		driftQ      = flag.Float64("drift-q", 0, "cumulative |ΔQ| that forces the full-solve fallback (0 = default 0.05)")
		driftTouch  = flag.Float64("drift-touched", 0, "cumulative touched-vertex fraction that forces the fallback (0 = default 0.35)")
		khops       = flag.Int("khops", 0, "incremental sweep seeds vertices within k hops of changed edges (0 = default 2)")
	)
	flag.Parse()

	g, _, err := gen.Load(*graphPath, *genSpec)
	if err != nil {
		fatal(err)
	}
	opt := dserver.Options{
		P:           *p,
		AutoResolve: *autoResolve,
		Core: core.Options{
			DHigh:  *dhigh,
			DriftQ: *driftQ, DriftTouched: *driftTouch, UpdateKHops: *khops,
		},
	}
	if opt.Core.Heuristic, err = core.ParseHeuristic(*heuristic); err != nil {
		fatal(err)
	}
	if opt.Core.Partitioning, err = partition.ParseKind(*partitioner); err != nil {
		fatal(err)
	}

	t0 := time.Now()
	w, err := dserver.New(g, opt)
	if err != nil {
		fatal(err)
	}
	defer w.Close()
	fmt.Fprintf(os.Stderr, "dserver: %d vertices, %d edges solved on %d ranks in %v (Q=%.6f), serving\n",
		g.NumVertices(), g.NumEdges(), w.P(), time.Since(t0), w.Stats().Modularity)

	if *listen == "" {
		if err := w.Serve(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "dserver: listening on %s\n", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			fatal(err)
		}
		go func() {
			defer conn.Close()
			// The world serializes requests internally, so concurrent
			// connections are safe; errors here are connection-local.
			if err := w.Serve(conn, conn); err != nil {
				fmt.Fprintf(os.Stderr, "dserver: %v: %v\n", conn.RemoteAddr(), err)
			}
		}()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dserver:", err)
	os.Exit(1)
}
