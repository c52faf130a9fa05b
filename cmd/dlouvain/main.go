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
// (optionally) the per-iteration modularity trace, phase breakdown, and
// quality scores against planted ground truth.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/trace"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "path to a graph file (.txt edge list, .sbin sharded binary, .metis; flat .bin files written by older gengraphs still load)")
		genSpec     = flag.String("gen", "", "generator spec, e.g. lfr:n=5000,mu=0.3,seed=1 (see internal/gen.ParseSpec)")
		p           = flag.Int("p", 4, "number of ranks (simulated processors)")
		dhigh       = flag.Int("dhigh", 0, "hub degree threshold (0 = automatic)")
		heuristic   = flag.String("heuristic", "enhanced", "convergence heuristic: enhanced|simple|strict")
		partitioner = flag.String("partitioning", "delegate", "partitioning: delegate|1d")
		seq         = flag.Bool("seq", false, "also run the sequential Louvain baseline and compare")
		showTrace   = flag.Bool("trace", false, "print the per-iteration modularity trace")
		breakdown   = flag.Bool("breakdown", false, "print the stage-1 per-phase time breakdown")
		outPath     = flag.String("o", "", "write the final membership (vertex community) to this file")
		gamma       = flag.Float64("gamma", 1, "modularity resolution γ (>1 = more, smaller communities)")
		showLevels  = flag.Bool("levels", false, "print the dendrogram (communities per clustering level)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
		commDL      = flag.Duration("comm-deadline", 0, "per-receive deadline for the rank goroutines; 0 blocks forever (docs/ROBUSTNESS.md)")
		events      = flag.Bool("events", false, "stream runtime events (retries, peer-down, chaos injections) to stderr")

		// Out-of-core mode (docs/PERFORMANCE.md).
		oocore   = flag.Bool("oocore", false, "partition and solve from a .sbin file's shard windows without decoding the whole graph (requires -graph FILE.sbin)")
		memstats = flag.Bool("memstats", false, "sample the heap during the run and print its high-water mark")
	)
	flag.Parse()

	var hw *heapWatch
	if *memstats {
		hw = startHeapWatch()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *oocore {
		if !strings.HasSuffix(*graphPath, ".sbin") {
			fatal(fmt.Errorf("-oocore solves from a sharded binary; pass -graph FILE.sbin (gengraph -stream writes one)"))
		}
		if *seq || *showLevels {
			fatal(fmt.Errorf("-seq and -levels need the whole graph in RAM; drop them with -oocore"))
		}
	}

	tIngest := time.Now()
	var (
		g     *graph.Graph
		truth graph.Membership
		s     *graph.Sharded
		sc    io.Closer
		err   error
	)
	if *oocore {
		s, sc, err = graph.OpenShardedFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: %d vertices, %d edges, %d shards (out of core)\n",
			s.NumVertices(), s.NumArcs()/2, s.NumShards())
	} else {
		g, truth, err = gen.Load(*graphPath, *genSpec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("graph: %d vertices, %d edges, max degree %d\n",
			g.NumVertices(), g.NumEdges(), g.MaxDegree())
	}
	ingestTime := time.Since(tIngest)

	if *events {
		trace.SetEventOutput(os.Stderr)
	}

	opt := core.Options{
		P: *p, DHigh: *dhigh, TrackTrace: *showTrace, Resolution: *gamma,
		TrackLevels: *showLevels, CommDeadline: *commDL,
	}
	if opt.Heuristic, err = core.ParseHeuristic(*heuristic); err != nil {
		fatal(err)
	}
	if opt.Partitioning, err = partition.ParseKind(*partitioner); err != nil {
		fatal(err)
	}

	var res *core.Result
	if *oocore {
		tPart := time.Now()
		layout, berr := partition.BuildStreaming(s, opt.PartitionOptions(s.NumVertices(), s.NumArcs()))
		if berr != nil {
			fatal(berr)
		}
		partTime := time.Since(tPart)
		if err := sc.Close(); err != nil {
			fatal(err)
		}
		res, err = core.RunLayout(layout, opt)
		if err != nil {
			fatal(err)
		}
		res.PartitionTime = partTime
	} else {
		res, err = core.Run(g, opt)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("modularity: %.6f (%d communities)\n", res.Modularity, res.Membership.NumCommunities())
	fmt.Printf("hubs: %d  stage1 iters: %d  outer levels: %d\n",
		res.HubCount, res.Stage1Iters, res.OuterLevels)
	fmt.Printf("times: ingest %v, partition %v, stage1 %v, stage2 %v, total wall %v\n",
		ingestTime, res.PartitionTime, res.Stage1Time, res.Stage2Time, res.TotalTime)
	fmt.Printf("simulated parallel clustering time: %v (stage1 %v + stage2 %v)\n",
		res.Stage1Sim+res.Stage2Sim, res.Stage1Sim, res.Stage2Sim)
	fmt.Printf("partition census: W=%.4f, max ghosts=%d\n",
		res.Census.ImbalanceW(), res.Census.MaxGhosts())
	fmt.Printf("load: balance=%.3f (work max/mean)\n", res.BalanceRatio)
	fmt.Printf("communication: %d bytes total, %d bytes max per rank\n",
		res.CommStats.TotalBytesSent(), res.CommStats.MaxBytesSent())

	if *breakdown {
		fmt.Printf("pipeline breakdown: ingest %v, partition %v, stage1 %v, stage2 %v\n",
			ingestTime, res.PartitionTime, res.Stage1Time, res.Stage2Time)
		fmt.Printf("stage-1 breakdown (rank 0): %s over %d iterations, balance=%.3f\n",
			res.Breakdown.String(), res.Breakdown.Iters, res.BalanceRatio)
	}
	if *showLevels {
		fmt.Println("dendrogram:")
		for l, m := range res.LevelMemberships {
			fmt.Printf("  level %d: %d communities, Q=%.4f\n",
				l+1, m.NumCommunities(), graph.Modularity(g, m))
		}
	}
	if *showTrace {
		fmt.Print("modularity trace:")
		for _, q := range res.QTrace {
			fmt.Printf(" %.4f", q)
		}
		fmt.Println()
	}
	if truth != nil {
		s, err := quality.Compare(res.Membership, truth)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("quality vs planted truth: NMI=%.4f F=%.4f NVD=%.4f RI=%.4f ARI=%.4f JI=%.4f\n",
			s.NMI, s.FMeasure, s.NVD, s.RI, s.ARI, s.JI)
	}
	if *seq {
		runSequential(g, res)
	}
	if *outPath != "" {
		if err := writeMembership(*outPath, res.Membership); err != nil {
			fatal(err)
		}
		fmt.Printf("membership written to %s\n", *outPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		fmt.Printf("heap profile written to %s\n", *memProfile)
	}
	if hw != nil {
		fmt.Printf("heap high-water: %.1f MB\n", float64(hw.Stop())/(1<<20))
	}
}

func runSequential(g *graph.Graph, dist *core.Result) {
	t0 := time.Now()
	seq := louvain.Run(g, louvain.Options{})
	fmt.Printf("sequential baseline: Q=%.6f (%d communities) in %v — parallel ΔQ %+.4f\n",
		seq.Modularity, seq.Membership.NumCommunities(), time.Since(t0),
		dist.Modularity-seq.Modularity)
}

func writeMembership(path string, m graph.Membership) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for v, c := range m {
		if _, err := fmt.Fprintf(f, "%d %d\n", v, c); err != nil {
			return err
		}
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlouvain:", err)
	os.Exit(1)
}
