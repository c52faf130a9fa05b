// Command worker is one rank of a truly distributed (multi-process) run
// over the TCP transport. Start one worker per rank with the same graph
// input and the full address list; rank 0 gathers and reports the result.
//
// Example (3 ranks on one machine):
//
//	ADDRS=127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
//	worker -rank 0 -addrs $ADDRS -gen lfr:n=5000,mu=0.3 &
//	worker -rank 1 -addrs $ADDRS -gen lfr:n=5000,mu=0.3 &
//	worker -rank 2 -addrs $ADDRS -gen lfr:n=5000,mu=0.3
//
// Exit status: 0 solved, 1 loading, connecting or solving failed, 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of the command: args are the raw command-line
// arguments (program name excluded), output goes to the given writers, and
// the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rank        = fs.Int("rank", -1, "this worker's rank")
		addrList    = fs.String("addrs", "", "comma-separated listen addresses, one per rank")
		graphPath   = fs.String("graph", "", "path to a graph file (.txt/.sbin/.metis; all workers must use the same input)")
		genSpec     = fs.String("gen", "", "generator spec (all workers must use the same spec)")
		oocore      = fs.Bool("oocore", false, "partition and solve out of core from a .sbin file's shard windows (all workers must pass it)")
		heuristic   = fs.String("heuristic", "enhanced", "convergence heuristic: enhanced|simple|strict")
		partitioner = fs.String("partitioning", "delegate", "partitioning: delegate|1d (all workers must agree)")

		// Robustness knobs (docs/ROBUSTNESS.md). Workers of one world are
		// rarely started simultaneously, so dials retry with backoff until
		// -dial-total; once the world is up, -comm-deadline bounds every
		// receive so a dead peer fails the run instead of hanging it.
		dialTotal    = fs.Duration("dial-total", 30*time.Second, "total budget for dialing the other workers (retries with backoff)")
		dialBase     = fs.Duration("dial-base", 50*time.Millisecond, "initial dial retry backoff")
		commDeadline = fs.Duration("comm-deadline", 0, "per-receive deadline; 0 blocks forever (e.g. 30s)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "worker: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "worker:", err)
		return 1
	}

	addrs := strings.Split(*addrList, ",")
	if *rank < 0 || *rank >= len(addrs) {
		return usage("-rank %d out of range for %d addresses", *rank, len(addrs))
	}
	if (*graphPath == "") == (*genSpec == "") {
		return usage("pass one of -graph FILE and -gen SPEC")
	}
	if *oocore && !strings.HasSuffix(*graphPath, ".sbin") {
		return usage("-oocore solves from a sharded binary; pass -graph FILE.sbin")
	}
	opt := core.Options{P: len(addrs), CommDeadline: *commDeadline}
	var err error
	if opt.Partitioning, err = partition.ParseKind(*partitioner); err != nil {
		return usage("%v", err)
	}
	if opt.Heuristic, err = core.ParseHeuristic(*heuristic); err != nil {
		return usage("%v", err)
	}

	tIngest := time.Now()
	var (
		g  *graph.Graph
		s  *graph.Sharded
		sc io.Closer
	)
	if *oocore {
		s, sc, err = graph.OpenShardedFile(*graphPath)
	} else {
		g, _, err = gen.Load(*graphPath, *genSpec)
	}
	if err != nil {
		return fail(err)
	}
	ingestTime := time.Since(tIngest)

	ep, err := comm.DialTCPWorldConfig(*rank, addrs, comm.DialOptions{
		Backoff: comm.Backoff{Base: *dialBase, Total: *dialTotal},
	})
	if err != nil {
		return fail(err)
	}
	defer ep.Close()

	var res *core.RankResult
	if *oocore {
		// Every worker runs the same deterministic streaming build, then
		// keeps only its own part — no rank ever holds the whole graph.
		layout, berr := partition.BuildStreaming(s, opt.PartitionOptions())
		if berr != nil {
			return fail(berr)
		}
		if err := sc.Close(); err != nil {
			return fail(err)
		}
		res, err = core.RunRankLayout(ep, layout.Parts[*rank], opt)
	} else {
		res, err = core.RunRank(ep, g, opt)
	}
	if err != nil {
		return fail(err)
	}

	// Gather every rank's piece at rank 0 and assemble the membership. Each
	// piece carries the rank's work units so rank 0 can report the final
	// work-balance ratio alongside the labels.
	b := wire.NewBuffer(len(res.Tracked)*6 + 10)
	b.PutInts(res.Tracked)
	b.PutInts(res.Labels)
	b.PutInts([]int{int(res.WorkUnits)})
	pieces, err := comm.Gather(ep, 0, b.Bytes())
	if err != nil {
		return fail(err)
	}
	if *rank != 0 {
		fmt.Fprintf(stdout, "rank %d done: Q=%.6f, stage1 iters %d\n", *rank, res.Modularity, res.Stage1Iters)
		return 0
	}
	fmt.Fprintf(stdout, "times: ingest %v, stage1 %v, stage2 %v\n", ingestTime, res.Stage1Time, res.Stage2Time)
	nGlobal := 0
	if g != nil {
		nGlobal = g.NumVertices()
	} else {
		nGlobal = s.NumVertices()
	}
	membership := make(graph.Membership, nGlobal)
	var workMax, workSum int64
	for _, piece := range pieces {
		rd := wire.NewReader(piece)
		tracked := rd.Ints()
		labels := rd.Ints()
		work := rd.Ints()
		if err := rd.Err(); err != nil {
			return fail(err)
		}
		for i, u := range tracked {
			membership[u] = labels[i]
		}
		w := int64(work[0])
		workSum += w
		if w > workMax {
			workMax = w
		}
	}
	k := membership.Normalize()
	fmt.Fprintf(stdout, "distributed run over %d TCP workers complete\n", len(addrs))
	if g != nil {
		fmt.Fprintf(stdout, "modularity: %.6f (%d communities), verified %.6f\n",
			res.Modularity, k, graph.Modularity(g, membership))
	} else {
		// Out of core there is no in-RAM graph to recompute Q against.
		fmt.Fprintf(stdout, "modularity: %.6f (%d communities)\n", res.Modularity, k)
	}
	balance := 0.0
	if workSum > 0 {
		balance = float64(workMax) * float64(len(addrs)) / float64(workSum)
	}
	fmt.Fprintf(stdout, "load: balance=%.3f (work max/mean)\n", balance)
	return 0
}
