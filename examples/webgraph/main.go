// Web-graph scenario (the paper's Figures 6 and 9): partition a hub-heavy
// scale-free crawl-like graph, compare the workload balance of 1D and
// delegate partitioning, and sweep the processor count to observe scaling.
//
//	go run ./examples/webgraph
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

func main() {
	// An R-MAT web-crawl stand-in: strong hubs, weak community structure.
	cfg := gen.Graph500RMAT(13, 99)
	cfg.EdgeFactor = 12
	g, err := gen.RMAT(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web graph: %d pages, %d links, max degree %d\n\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree())

	// Partition balance: the hub problem and the delegate fix.
	fmt.Println("partition balance at p=64 (W = max/avg - 1, lower is better):")
	for _, kind := range []partition.Kind{partition.OneD, partition.Delegate} {
		l, err := partition.Build(g, partition.Options{P: 64, Kind: kind})
		if err != nil {
			log.Fatal(err)
		}
		c := l.Census()
		fmt.Printf("  %-9s W=%.3f  max ghosts=%d  hubs=%d\n",
			kind, c.ImbalanceW(), c.MaxGhosts(), len(l.Hubs))
	}

	// Scaling sweep.
	fmt.Println("\nclustering time vs processors (simulated parallel time):")
	var base float64
	for _, p := range []int{1, 2, 4, 8} {
		res, err := core.Run(g, core.Options{P: p})
		if err != nil {
			log.Fatal(err)
		}
		sim := res.Stage1Sim + res.Stage2Sim
		if base == 0 {
			base = float64(sim)
		}
		fmt.Printf("  p=%d: %10v  speedup %.2f  Q=%.4f  (%d iterations)\n",
			p, sim.Round(1000), base/float64(sim), res.Modularity, res.Stage1Iters)
	}
}
