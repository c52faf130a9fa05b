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

func main() {
	var (
		rank        = flag.Int("rank", -1, "this worker's rank")
		addrList    = flag.String("addrs", "", "comma-separated listen addresses, one per rank")
		graphPath   = flag.String("graph", "", "path to a graph file (.txt/.bin/.sbin/.metis; all workers must use the same input)")
		genSpec     = flag.String("gen", "", "generator spec (all workers must use the same spec)")
		oocore      = flag.Bool("oocore", false, "partition and solve out of core from a .sbin file's shard windows (all workers must pass it)")
		heuristic   = flag.String("heuristic", "enhanced", "convergence heuristic: enhanced|simple|strict")
		workers     = flag.Int("workers", 0, "intra-rank workers for ingest and the parallel kernels (0 = automatic, 1 = serial; results are identical)")
		partitioner = flag.String("partitioning", "delegate", "partitioning: delegate|1d (all workers must agree)")

		// Robustness knobs (docs/ROBUSTNESS.md). Workers of one world are
		// rarely started simultaneously, so dials retry with backoff until
		// -dial-total; once the world is up, -comm-deadline bounds every
		// receive so a dead peer fails the run instead of hanging it.
		dialTotal    = flag.Duration("dial-total", 30*time.Second, "total budget for dialing the other workers (retries with backoff)")
		dialBase     = flag.Duration("dial-base", 50*time.Millisecond, "initial dial retry backoff")
		commDeadline = flag.Duration("comm-deadline", 0, "per-receive deadline; 0 blocks forever (e.g. 30s)")
	)
	flag.Parse()

	addrs := strings.Split(*addrList, ",")
	if *rank < 0 || *rank >= len(addrs) {
		fatal(fmt.Errorf("-rank %d out of range for %d addresses", *rank, len(addrs)))
	}
	tIngest := time.Now()
	var (
		g   *graph.Graph
		s   *graph.Sharded
		sc  io.Closer
		err error
	)
	if *oocore {
		if !strings.HasSuffix(*graphPath, ".sbin") {
			fatal(fmt.Errorf("-oocore solves from a sharded binary; pass -graph FILE.sbin"))
		}
		s, sc, err = graph.OpenShardedFile(*graphPath)
	} else {
		g, _, err = gen.Load(*graphPath, *genSpec, *workers)
	}
	if err != nil {
		fatal(err)
	}
	ingestTime := time.Since(tIngest)

	ep, err := comm.DialTCPWorldConfig(*rank, addrs, comm.DialOptions{
		Backoff: comm.Backoff{Base: *dialBase, Total: *dialTotal},
	})
	if err != nil {
		fatal(err)
	}
	defer ep.Close()

	opt := core.Options{P: len(addrs), CommDeadline: *commDeadline, Workers: *workers}
	if opt.Partitioning, err = partition.ParseKind(*partitioner); err != nil {
		fatal(err)
	}
	if opt.Heuristic, err = core.ParseHeuristic(*heuristic); err != nil {
		fatal(err)
	}

	var res *core.RankResult
	if *oocore {
		// Every worker derives the same threshold and runs the same
		// deterministic streaming build, then keeps only its own part — no
		// rank ever holds the whole graph.
		layout, berr := partition.BuildStreaming(s, opt.PartitionOptions(s.NumVertices(), s.NumArcs()))
		if berr != nil {
			fatal(berr)
		}
		opt.DHigh = layout.DHigh
		if err := sc.Close(); err != nil {
			fatal(err)
		}
		res, err = core.RunRankLayout(ep, layout.Parts[*rank], opt)
	} else {
		res, err = core.RunRank(ep, g, opt)
	}
	if err != nil {
		fatal(err)
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
		fatal(err)
	}
	if *rank != 0 {
		fmt.Printf("rank %d done: Q=%.6f, stage1 iters %d\n", *rank, res.Modularity, res.Stage1Iters)
		return
	}
	fmt.Printf("times: ingest %v, stage1 %v, stage2 %v\n", ingestTime, res.Stage1Time, res.Stage2Time)
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
			fatal(err)
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
	fmt.Printf("distributed run over %d TCP workers complete\n", len(addrs))
	if g != nil {
		fmt.Printf("modularity: %.6f (%d communities), verified %.6f\n",
			res.Modularity, k, graph.Modularity(g, membership))
	} else {
		// Out of core there is no in-RAM graph to recompute Q against.
		fmt.Printf("modularity: %.6f (%d communities)\n", res.Modularity, k)
	}
	balance := 0.0
	if workSum > 0 {
		balance = float64(workMax) * float64(len(addrs)) / float64(workSum)
	}
	fmt.Printf("load: balance=%.3f (work max/mean)\n", balance)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "worker:", err)
	os.Exit(1)
}
