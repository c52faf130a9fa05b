// Command partition analyzes graph partitionings without running any
// clustering: per-rank edge and ghost distributions, the workload imbalance
// W = max/avg − 1, and hub statistics, for 1D and delegate partitioning
// across a sweep of processor counts (the paper's Figure 6 as a tool).
//
//	partition -gen rmat:scale=14 -procs 256,1024,4096
//	partition -graph web.txt -procs 64 -dhigh 128
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to a graph file (.txt edge list, .bin, .sbin, or .metis)")
		genSpec   = flag.String("gen", "", "generator spec (see internal/gen.ParseSpec)")
		procsArg  = flag.String("procs", "64,256,1024", "comma-separated processor counts")
		dhigh     = flag.Int("dhigh", 0, "hub degree threshold (0 = 2× average degree)")
		workers   = flag.Int("workers", 0, "workers for parallel ingest and partitioning (0 = automatic, 1 = serial; results are identical)")
		oocore    = flag.Bool("oocore", false, "partition from a .sbin file's shard windows without decoding the whole graph (requires -graph FILE.sbin)")
	)
	flag.Parse()

	var (
		g   *graph.Graph
		s   *graph.Sharded
		err error
	)
	var n int
	var arcs int64
	if *oocore {
		if !strings.HasSuffix(*graphPath, ".sbin") {
			fatal(fmt.Errorf("-oocore reads a sharded binary; pass -graph FILE.sbin"))
		}
		var sc io.Closer
		s, sc, err = graph.OpenShardedFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		defer sc.Close()
		n, arcs = s.NumVertices(), s.NumArcs()
		fmt.Printf("graph: %d vertices, %d edges, %d shards, avg degree %.1f (out of core)\n\n",
			n, arcs/2, s.NumShards(), float64(arcs)/float64(n))
	} else {
		g, _, err = gen.Load(*graphPath, *genSpec, *workers)
		if err != nil {
			fatal(err)
		}
		n, arcs = g.NumVertices(), g.NumArcs()
		fmt.Printf("graph: %d vertices, %d edges, max degree %d, avg degree %.1f\n\n",
			g.NumVertices(), g.NumEdges(), g.MaxDegree(),
			float64(arcs)/float64(n))
	}

	threshold := *dhigh
	if threshold <= 0 {
		threshold = 2 * int(arcs) / n
	}

	var procs []int
	for _, s := range strings.Split(*procsArg, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			fatal(fmt.Errorf("bad processor count %q", s))
		}
		procs = append(procs, p)
	}

	fmt.Printf("%-6s %-9s %10s %10s %10s %8s %10s %6s\n",
		"p", "kind", "min edges", "med edges", "max edges", "W", "max ghosts", "hubs")
	for _, p := range procs {
		for _, kind := range []partition.Kind{partition.OneD, partition.Delegate} {
			opt := partition.Options{P: p, Kind: kind, DHigh: threshold, Workers: *workers}
			var l *partition.Layout
			var err error
			if *oocore {
				l, err = partition.BuildStreaming(s, opt)
			} else {
				l, err = partition.Build(g, opt)
			}
			if err != nil {
				fatal(err)
			}
			c := l.Census()
			arcs := append([]int64(nil), c.ArcsPerRank...)
			sort.Slice(arcs, func(i, j int) bool { return arcs[i] < arcs[j] })
			fmt.Printf("%-6d %-9s %10d %10d %10d %8.3f %10d %6d\n",
				p, kind, arcs[0], arcs[len(arcs)/2], arcs[len(arcs)-1],
				c.ImbalanceW(), c.MaxGhosts(), c.HubCount)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partition:", err)
	os.Exit(1)
}
