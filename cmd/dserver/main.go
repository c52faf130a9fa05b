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
//
// Exit status: 0 served to the end of stdin, 1 loading, solving or serving
// failed, 2 usage (reported before any graph is read).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dserver"
	"repro/internal/gen"
	"repro/internal/partition"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the testable body of the command: args are the raw command-line
// arguments (program name excluded), the stdio protocol reads stdin and
// answers on stdout, and the return value is the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath   = fs.String("graph", "", "path to an edge-list (.txt), sharded binary (.sbin), or METIS (.metis) graph file")
		genSpec     = fs.String("gen", "", "generator spec, e.g. caveman:cliques=50,size=10 (see internal/gen.ParseSpec)")
		p           = fs.Int("p", 4, "number of resident ranks")
		dhigh       = fs.Int("dhigh", 0, "hub degree threshold (0 = automatic)")
		heuristic   = fs.String("heuristic", "sized", "convergence heuristic: sized (remote moves into larger communities)|enhanced (the paper's label rule)|simple")
		partitioner = fs.String("partitioning", "delegate", "partitioning: delegate|1d")
		listen      = fs.String("listen", "", "serve the line protocol on this TCP address instead of stdin/stdout")
		autoResolve = fs.Bool("auto-resolve", false, "run the full-solve fallback inside the update call when drift crosses a threshold")
		driftQ      = fs.Float64("drift-q", 0, "cumulative |ΔQ| that forces the full-solve fallback (0 = default 0.05)")
		driftTouch  = fs.Float64("drift-touched", 0, "cumulative touched-vertex fraction that forces the fallback (0 = default 0.35)")
		khops       = fs.Int("khops", 0, "incremental sweep seeds vertices within k hops of changed edges (0 = default 2)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dserver: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dserver:", err)
		return 1
	}

	if (*graphPath == "") == (*genSpec == "") {
		return usage("pass one of -graph FILE and -gen SPEC")
	}
	if *p < 1 {
		return usage("-p %d, want >= 1", *p)
	}
	opt := dserver.Options{
		P:            *p,
		AutoResolve:  *autoResolve,
		KHops:        *khops,
		DriftQ:       *driftQ,
		DriftTouched: *driftTouch,
		Core:         core.Options{DHigh: *dhigh},
	}
	var err error
	if opt.Core.Heuristic, err = core.ParseHeuristic(*heuristic); err != nil {
		return usage("%v", err)
	}
	if opt.Core.Partitioning, err = partition.ParseKind(*partitioner); err != nil {
		return usage("%v", err)
	}

	g, _, err := gen.Load(*graphPath, *genSpec)
	if err != nil {
		return fail(err)
	}
	t0 := time.Now()
	w, err := dserver.New(g, opt)
	if err != nil {
		return fail(err)
	}
	defer w.Close()
	fmt.Fprintf(stderr, "dserver: %d vertices, %d edges solved on %d ranks in %v (Q=%.6f), serving\n",
		g.NumVertices(), g.NumEdges(), w.P(), time.Since(t0), w.Stats().Modularity)

	if *listen == "" {
		if err := w.Serve(stdin, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	defer ln.Close()
	fmt.Fprintf(stderr, "dserver: listening on %s\n", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			return fail(err)
		}
		go serveConn(w, conn, stderr)
	}
}

// writeTimeout bounds every reply write on a -listen connection, so a client
// that stops reading loses its connection. Tests shorten it.
var writeTimeout = 30 * time.Second

// serveConn runs the line protocol on one connection, then closes it. The
// world serializes mutations and serves reads from its published snapshot,
// so concurrent connections are safe; errors here are connection-local.
func serveConn(w *dserver.World, conn net.Conn, stderr io.Writer) {
	defer conn.Close()
	if err := w.Serve(conn, deadlineWriter{conn}); err != nil {
		fmt.Fprintf(stderr, "dserver: %v: %v\n", conn.RemoteAddr(), err)
	}
}

// deadlineWriter arms the connection's write deadline before every write.
type deadlineWriter struct{ conn net.Conn }

func (d deadlineWriter) Write(p []byte) (int, error) {
	if err := d.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return 0, err
	}
	return d.conn.Write(p)
}
