// Social-network scenario (the paper's Table II): detect communities in a
// friendship-like graph with known ground truth and score the detection
// with all six quality measures, comparing the distributed algorithm
// against the sequential baseline and against the simple minimum-label
// heuristic.
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/quality"
)

func main() {
	// A social network stand-in: strong communities, power-law degrees.
	g, truth, err := gen.LFR(gen.DefaultLFR(4000, 0.2, 7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social network: %d members, %d friendships, %d real groups\n\n",
		g.NumVertices(), g.NumEdges(), truth.NumCommunities())

	score := func(name string, m graph.Membership, q float64) {
		s, err := quality.Compare(m, truth)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s Q=%.4f  NMI=%.4f  F=%.4f  NVD=%.4f  RI=%.4f  ARI=%.4f  JI=%.4f\n",
			name, q, s.NMI, s.FMeasure, s.NVD, s.RI, s.ARI, s.JI)
	}

	seq := louvain.Run(g, louvain.Options{})
	score("sequential Louvain", seq.Membership, seq.Modularity)

	enhanced, err := core.Run(g, core.Options{P: 8, Heuristic: core.HeuristicEnhanced})
	if err != nil {
		log.Fatal(err)
	}
	score("distributed (enhanced, p=8)", enhanced.Membership, enhanced.Modularity)

	simple, err := core.Run(g, core.Options{P: 8, Heuristic: core.HeuristicSimple})
	if err != nil {
		log.Fatal(err)
	}
	score("distributed (simple, p=8)", simple.Membership, simple.Modularity)

	fmt.Println("\nThe enhanced heuristic should track the sequential scores;")
	fmt.Println("the simple minimum-label heuristic degrades in a distributed setting")
	fmt.Println("(the paper's Figure 5 observation).")
}
