package core

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/graph"
)

// randomGraph builds a small random weighted graph from a seed.
func randomGraph(seed int64) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(60)
	e := n * (1 + rng.Intn(4))
	edges := make([]graph.Edge, e)
	for i := range edges {
		edges[i] = graph.Edge{U: rng.Intn(n), V: rng.Intn(n), W: 0.5 + rng.Float64()}
	}
	return graph.FromEdges(n, edges)
}

// TestQuickDistributedInvariants drives the full pipeline on random graphs
// and world sizes, asserting the structural invariants every run must hold:
// complete membership, dense labels, and a reported modularity that matches
// the membership exactly.
func TestQuickDistributedInvariants(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		g, err := randomGraph(seed)
		if err != nil {
			return false
		}
		p := 1 + int(pRaw%8)
		res, err := Run(g, Options{P: p})
		if err != nil {
			t.Logf("seed=%d p=%d: %v", seed, p, err)
			return false
		}
		if len(res.Membership) != g.NumVertices() {
			t.Logf("seed=%d p=%d: incomplete membership", seed, p)
			return false
		}
		k := res.Membership.NumCommunities()
		for _, c := range res.Membership {
			if c < 0 || c >= k {
				t.Logf("seed=%d p=%d: non-dense label %d", seed, p, c)
				return false
			}
		}
		want := graph.Modularity(g, res.Membership)
		if math.Abs(res.Modularity-want) > 1e-6 {
			t.Logf("seed=%d p=%d: Q %.9f != membership Q %.9f", seed, p, res.Modularity, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeuristicsNeverCrash runs all heuristics over random graphs.
func TestQuickHeuristicsNeverCrash(t *testing.T) {
	f := func(seed int64, h uint8) bool {
		g, err := randomGraph(seed)
		if err != nil {
			return false
		}
		res, err := Run(g, Options{
			P:             3,
			Heuristic:     Heuristic(h % 3),
			MaxInnerIters: 15,
		})
		if err != nil {
			return false
		}
		return res.Modularity >= -1 && res.Modularity <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSimWorkDeterministic asserts the simulated-time metric is a pure
// function of (graph, options): two runs must agree exactly.
func TestQuickSimWorkDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		g, err := randomGraph(seed)
		if err != nil {
			return false
		}
		a, err := Run(g, Options{P: 4})
		if err != nil {
			return false
		}
		b, err := Run(g, Options{P: 4})
		if err != nil {
			return false
		}
		return a.Stage1Sim == b.Stage1Sim && a.Stage2Sim == b.Stage2Sim &&
			a.Modularity == b.Modularity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRunRankAgreesAcrossTransports runs the same graph over the
// in-process and (loopback) TCP transports and checks identical results.
func TestQuickRunRankAgreesAcrossTransports(t *testing.T) {
	withInvariants(t)
	g, err := randomGraph(99)
	if err != nil {
		t.Fatal(err)
	}
	var inprocQ float64
	err = comm.RunWorld(3, func(c comm.Comm) error {
		res, err := RunRank(c, g, Options{P: 3})
		if err != nil {
			return err
		}
		// Every rank reports the same Q; only rank 0 writes the shared
		// variable (concurrent same-value writes are still a data race).
		if c.Rank() == 0 {
			inprocQ = res.Modularity
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if inprocQ != want.Modularity {
		t.Errorf("RunRank Q %.9f != Run Q %.9f", inprocQ, want.Modularity)
	}
}

// TestTCPTransportMatchesInProcess runs the identical clustering over real
// loopback TCP sockets and asserts bit-identical results with the
// in-process transport.
func TestTCPTransportMatchesInProcess(t *testing.T) {
	g, err := randomGraph(123)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Reserve three loopback ports.
	addrs := make([]string, 3)
	lns := make([]net.Listener, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}

	results := make([]*RankResult, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := comm.DialTCPWorld(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer ep.Close()
			results[r], errs[r] = RunRank(ep, g, Options{P: 3})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	m := make(graph.Membership, g.NumVertices())
	for _, res := range results {
		for i, u := range res.Tracked {
			m[u] = res.Labels[i]
		}
	}
	m.Normalize()
	if results[0].Modularity != want.Modularity {
		t.Errorf("TCP Q %.9f != in-process Q %.9f", results[0].Modularity, want.Modularity)
	}
	for i := range m {
		if m[i] != want.Membership[i] {
			t.Fatal("TCP membership differs from in-process membership")
		}
	}
}
