// Command partition analyzes graph partitionings without running any
// clustering: per-rank edge and ghost distributions, the workload imbalance
// W = max/avg − 1, and hub statistics, for 1D and delegate partitioning
// across a sweep of processor counts (the paper's Figure 6 as a tool).
//
//	partition -gen rmat:scale=14 -procs 256,1024,4096
//	partition -graph web.txt -procs 64 -dhigh 128
//
// Exit status: 0 analyzed, 1 loading or partitioning failed, 2 usage.
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of the command: args are the raw command-line
// arguments (program name excluded), output goes to the given writers, and
// the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("partition", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "path to a graph file (.txt edge list, .sbin, or .metis)")
		genSpec   = fs.String("gen", "", "generator spec (see internal/gen.ParseSpec)")
		procsArg  = fs.String("procs", "64,256,1024", "comma-separated processor counts")
		dhigh     = fs.Int("dhigh", 0, "hub degree threshold (0 = the partitioner's default, as dlouvain uses)")
		oocore    = fs.Bool("oocore", false, "partition from a .sbin file's shard windows without decoding the whole graph (requires -graph FILE.sbin)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "partition: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "partition:", err)
		return 1
	}

	if (*graphPath == "") == (*genSpec == "") {
		return usage("pass one of -graph FILE and -gen SPEC")
	}
	var procs []int
	for _, s := range strings.Split(*procsArg, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			return usage("bad processor count %q", s)
		}
		procs = append(procs, p)
	}
	if *oocore && !strings.HasSuffix(*graphPath, ".sbin") {
		return usage("-oocore reads a sharded binary; pass -graph FILE.sbin")
	}

	var (
		g            *graph.Graph
		s            *graph.Sharded
		n            int
		arcs         int64
		header, tail string
		err          error
	)
	if *oocore {
		var sc io.Closer
		if s, sc, err = graph.OpenShardedFile(*graphPath); err != nil {
			return fail(err)
		}
		defer sc.Close()
		n, arcs = s.NumVertices(), s.NumArcs()
		header = fmt.Sprintf("%d vertices, %d edges, %d shards", n, arcs/2, s.NumShards())
		tail = " (out of core)"
	} else {
		if g, _, err = gen.Load(*graphPath, *genSpec); err != nil {
			return fail(err)
		}
		n, arcs = g.NumVertices(), g.NumArcs()
		header = fmt.Sprintf("%d vertices, %d edges, max degree %d", n, g.NumEdges(), g.MaxDegree())
	}
	avgDeg := 0.0
	if n > 0 {
		avgDeg = float64(arcs) / float64(n)
	}
	fmt.Fprintf(stdout, "graph: %s, avg degree %.1f%s\n\n", header, avgDeg, tail)

	fmt.Fprintf(stdout, "%-6s %-9s %10s %10s %10s %8s %10s %6s\n",
		"p", "kind", "min edges", "med edges", "max edges", "W", "max ghosts", "hubs")
	for _, p := range procs {
		for _, kind := range []partition.Kind{partition.OneD, partition.Delegate} {
			opt := partition.Options{P: p, Kind: kind, DHigh: *dhigh}
			var l *partition.Layout
			if *oocore {
				l, err = partition.BuildStreaming(s, opt)
			} else {
				l, err = partition.Build(g, opt)
			}
			if err != nil {
				return fail(err)
			}
			c := l.Census()
			arcs := append([]int64(nil), c.ArcsPerRank...)
			sort.Slice(arcs, func(i, j int) bool { return arcs[i] < arcs[j] })
			fmt.Fprintf(stdout, "%-6d %-9s %10d %10d %10d %8.3f %10d %6d\n",
				p, kind, arcs[0], arcs[len(arcs)/2], arcs[len(arcs)-1],
				c.ImbalanceW(), c.MaxGhosts(), c.HubCount)
		}
	}
	return 0
}
