// TCP cluster scenario: the same distributed Louvain algorithm running over
// the TCP transport — each rank is a separate endpoint connected by a full
// mesh of real sockets on loopback (in production each rank would be its
// own process or machine; see dlouvain -addrs for the multi-process form).
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func main() {
	const p = 4
	g, _, err := gen.LFR(gen.DefaultLFR(2000, 0.25, 11))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges; clustering over %d TCP ranks\n",
		g.NumVertices(), g.NumEdges(), p)
	opt := core.Options{P: p}
	layout, err := partition.Build(g, opt.PartitionOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Reserve p loopback ports.
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}

	// Every rank solves its part and sends its answer to rank 0, which
	// alone gets the world's Result.
	results := make([]*core.Result, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := comm.DialTCPWorld(r, addrs, comm.Backoff{})
			if err != nil {
				log.Fatalf("rank %d: %v", r, err)
			}
			defer ep.Close()
			if results[r], err = core.RunRankLayout(ep, layout.Parts[r], opt); err != nil {
				log.Fatalf("rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()

	res := results[0]
	fmt.Printf("modularity %.4f across %d communities\n", res.Modularity, res.Membership.NumCommunities())
	fmt.Printf("verified against membership: %.4f\n", graph.Modularity(g, res.Membership))
	fmt.Printf("%d bytes moved over real TCP sockets\n", res.CommStats.TotalBytesSent())
}
