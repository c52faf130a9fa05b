// Command dlouvain runs the distributed Louvain algorithm on a graph read
// from a file or produced by a generator spec.
//
// Usage:
//
//	dlouvain -gen lfr:n=5000,mu=0.3,seed=1 -p 8
//	dlouvain -graph web.txt -p 16 -heuristic simple -partitioning 1d
//	dlouvain -gen rmat:scale=14 -p 8 -trace -breakdown
//
// The tool prints the final modularity, timing, partition census, and
// (optionally) the per-iteration modularity trace, phase breakdown — with
// the bytes sent per exchange and per rank, which both sum to the
// communication line — and quality scores against planted ground truth.
//
// With -addrs A0,…,Ap−1 -rank r the process is rank r of a world of OS
// processes over TCP: start one per rank with the same input, and rank 0
// prints the report dlouvain -p p prints.
//
// Exit status: 0 solved, 1 loading, solving or writing failed, 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of the command: args are the raw command-line
// arguments (program name excluded), output goes to the given writers, and
// the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlouvain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath   = fs.String("graph", "", "path to a graph file (.txt edge list, .sbin sharded binary, or .metis)")
		genSpec     = fs.String("gen", "", "generator spec, e.g. lfr:n=5000,mu=0.3,seed=1 (see internal/gen.ParseSpec)")
		p           = fs.Int("p", 4, "number of ranks (simulated processors)")
		dhigh       = fs.Int("dhigh", 0, "hub degree threshold (0 = automatic)")
		heuristic   = fs.String("heuristic", "enhanced", "convergence heuristic: enhanced|simple")
		partitioner = fs.String("partitioning", "delegate", "partitioning: delegate|1d")
		seq         = fs.Bool("seq", false, "also run the sequential Louvain baseline and compare")
		showTrace   = fs.Bool("trace", false, "print the per-iteration modularity trace ('|' ends stage 1)")
		breakdown   = fs.Bool("breakdown", false, "print the per-phase time breakdown and the bytes sent per exchange and per rank")
		outPath     = fs.String("o", "", "write the final membership (vertex community) to this file")
		gamma       = fs.Float64("gamma", 1, "modularity resolution γ (>1 = more, smaller communities)")
		showLevels  = fs.Bool("levels", false, "print the dendrogram (communities per clustering level)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
		commDL      = fs.Duration("comm-deadline", 0, "per-receive deadline of every rank; 0 blocks forever (docs/ROBUSTNESS.md)")
		events      = fs.Bool("events", false, "stream runtime events (retries, peer-down, chaos injections) to stderr")

		// Out-of-core mode (docs/PERFORMANCE.md).
		oocore   = fs.Bool("oocore", false, "partition and solve from a .sbin file's shard windows without decoding the whole graph (requires -graph FILE.sbin)")
		memstats = fs.Bool("memstats", false, "sample the heap during the run and print its high-water mark and the bytes the run allocated")

		// Multi-process mode: ranks are processes over TCP (docs/ROBUSTNESS.md).
		addrList  = fs.String("addrs", "", "comma-separated listen addresses, one per rank: run as rank -rank of a TCP world")
		rank      = fs.Int("rank", -1, "this process's rank in -addrs")
		dialTotal = fs.Duration("dial-total", 30*time.Second, "with -addrs: budget for dialing the other ranks, which retries with backoff")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dlouvain: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dlouvain:", err)
		return 1
	}

	if (*graphPath == "") == (*genSpec == "") {
		return usage("pass one of -graph FILE and -gen SPEC")
	}
	if *p < 1 {
		return usage("-p %d, want >= 1", *p)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var addrs []string
	if set["addrs"] {
		addrs = strings.Split(*addrList, ",")
		if slices.Contains(addrs, "") {
			return usage("-addrs %q has an empty address", *addrList)
		}
		if *rank < 0 || *rank >= len(addrs) {
			return usage("-rank %d out of range for %d addresses", *rank, len(addrs))
		}
		if set["p"] && *p != len(addrs) {
			return usage("-p %d but -addrs lists %d ranks", *p, len(addrs))
		}
		*p = len(addrs)
	} else if set["rank"] || set["dial-total"] {
		return usage("-rank and -dial-total need -addrs")
	}
	if *oocore {
		if !strings.HasSuffix(*graphPath, ".sbin") {
			return usage("-oocore solves from a sharded binary; pass -graph FILE.sbin (gengraph -o FILE.sbin writes one)")
		}
		if *seq || *showLevels {
			return usage("-seq and -levels need the whole graph in RAM; drop them with -oocore")
		}
	}
	opt := core.Options{
		P: *p, DHigh: *dhigh, Resolution: *gamma,
		TrackLevels: *showLevels, CommDeadline: *commDL,
	}
	var err error
	if opt.Heuristic, err = core.ParseHeuristic(*heuristic); err != nil {
		return usage("%v", err)
	}
	if opt.Partitioning, err = partition.ParseKind(*partitioner); err != nil {
		return usage("%v", err)
	}

	var hw *heapWatch
	if *memstats {
		hw = startHeapWatch()
		defer hw.Stop()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	tIngest := time.Now()
	var (
		g     *graph.Graph
		truth graph.Membership
		s     *graph.Sharded
		sc    io.Closer
	)
	if *oocore {
		s, sc, err = graph.OpenShardedFile(*graphPath)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "graph: %d vertices, %d edges, %d shards (out of core)\n",
			s.NumVertices(), s.NumArcs()/2, s.NumShards())
	} else {
		g, truth, err = gen.Load(*graphPath, *genSpec)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "graph: %d vertices, %d edges, max degree %d\n",
			g.NumVertices(), g.NumEdges(), g.MaxDegree())
	}
	ingestTime := time.Since(tIngest)

	if *events {
		trace.SetEventOutput(stderr)
	}

	tPart := time.Now()
	var layout *partition.Layout
	if *oocore {
		layout, err = partition.BuildStreaming(s, opt.PartitionOptions())
		if err == nil {
			err = sc.Close()
		}
	} else {
		layout, err = partition.Build(g, opt.PartitionOptions())
	}
	if err != nil {
		return fail(err)
	}
	partTime := time.Since(tPart)
	var res *core.Result
	if addrs == nil {
		res, err = core.RunLayout(layout, opt)
	} else {
		var ep *comm.TCPEndpoint
		if ep, err = comm.DialTCPWorld(*rank, addrs, comm.Backoff{Total: *dialTotal}); err != nil {
			return fail(err)
		}
		defer ep.Close()
		res, err = core.RunRankLayout(ep, layout.Parts[*rank], opt)
	}
	if err != nil {
		return fail(err)
	}
	heapLine := func() {
		if hw != nil {
			high, alloc := hw.Stop()
			fmt.Fprintf(stdout, "heap high-water: %.1f MB\nheap allocated: %.1f MB\n", float64(high)/(1<<20), float64(alloc)/(1<<20))
		}
	}
	if res == nil {
		fmt.Fprintf(stdout, "rank %d: answer gathered at rank 0\n", *rank)
		heapLine()
		return 0
	}
	res.PartitionTime = partTime
	fmt.Fprintf(stdout, "modularity: %.6f (%d communities)\n", res.Modularity, res.Membership.NumCommunities())
	fmt.Fprintf(stdout, "hubs: %d  stage1 iters: %d  outer levels: %d\n",
		res.HubCount, res.Stage1Iters, res.OuterLevels)
	fmt.Fprintf(stdout, "times: ingest %v, partition %v, stage1 %v, stage2 %v, total wall %v\n",
		ingestTime, res.PartitionTime, res.Stage1Time, res.Stage2Time, res.TotalTime)
	fmt.Fprintf(stdout, "simulated parallel clustering time: %v (stage1 %v + stage2 %v)\n",
		res.Stage1Sim+res.Stage2Sim, res.Stage1Sim, res.Stage2Sim)
	fmt.Fprintf(stdout, "partition census: W=%.4f, max ghosts=%d\n",
		res.Census.ImbalanceW(), res.Census.MaxGhosts())
	fmt.Fprintf(stdout, "load: balance=%.3f (work max/mean)\n", res.BalanceRatio)
	fmt.Fprintf(stdout, "communication: %d bytes total, %d bytes max per rank\n",
		res.CommStats.TotalBytesSent(), res.CommStats.MaxBytesSent())

	if *breakdown {
		fmt.Fprintf(stdout, "pipeline breakdown: ingest %v, partition %v, stage1 %v, stage2 %v\n",
			ingestTime, res.PartitionTime, res.Stage1Time, res.Stage2Time)
		fmt.Fprintf(stdout, "stage-1 breakdown (rank 0): %s over %d iterations, balance=%.3f\n",
			res.Breakdown.String(), res.Breakdown.Iters, res.BalanceRatio)
		fmt.Fprintf(stdout, "wire breakdown (bytes sent, all ranks): %s\n", res.WireBytes)
		fmt.Fprint(stdout, "bytes sent per rank:")
		for _, r := range res.CommStats.PerRank {
			fmt.Fprintf(stdout, " %d", r.BytesSent)
		}
		fmt.Fprintln(stdout)
	}
	if *showLevels {
		fmt.Fprintln(stdout, "dendrogram:")
		for l, m := range res.LevelMemberships {
			fmt.Fprintf(stdout, "  level %d: %d communities, Q=%.4f\n",
				l+1, m.NumCommunities(), graph.ModularityResolution(g, m, *gamma))
		}
	}
	if *showTrace {
		// Six places keep the 1e-4-per-iteration tail visible; the bar
		// separates stage 1 from the merged levels.
		fmt.Fprint(stdout, "modularity trace:")
		for i, q := range res.QTrace {
			if i == res.Stage1Iters {
				fmt.Fprint(stdout, " |")
			}
			fmt.Fprintf(stdout, " %.6f", q)
		}
		fmt.Fprintln(stdout)
	}
	if truth != nil {
		s, err := quality.Compare(res.Membership, truth)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "quality vs planted truth: NMI=%.4f F=%.4f NVD=%.4f RI=%.4f ARI=%.4f JI=%.4f\n",
			s.NMI, s.FMeasure, s.NVD, s.RI, s.ARI, s.JI)
	}
	if *seq {
		runSequential(stdout, g, res, *gamma)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fail(err)
		}
		err = graph.WriteMembership(f, res.Membership)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "membership written to %s\n", *outPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "heap profile written to %s\n", *memProfile)
	}
	heapLine()
	return 0
}

// runSequential runs the serial baseline at the same resolution γ as the
// distributed solve, so the printed ΔQ compares like with like.
func runSequential(w io.Writer, g *graph.Graph, dist *core.Result, gamma float64) {
	t0 := time.Now()
	seq := louvain.Run(g, louvain.Options{Resolution: gamma})
	fmt.Fprintf(w, "sequential baseline: Q=%.6f (%d communities) in %v — parallel ΔQ %+.4f\n",
		seq.Modularity, seq.Membership.NumCommunities(), time.Since(t0),
		dist.Modularity-seq.Modularity)
}
