package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
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

// TestQuickRunRankAgreesAcrossTransports runs the same random graph over the
// in-process and (loopback) TCP transports and checks identical Results.
func TestQuickRunRankAgreesAcrossTransports(t *testing.T) {
	withInvariants(t)
	g, err := randomGraph(99)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{P: 3}
	want, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "tcp", worldResult(t, tcpWorld(t), g, opt), want)
}

// TestTCPTransportMatchesInProcess solves over real loopback TCP sockets and
// asserts that rank 0's Result is RunLayout's field by field — membership,
// Q, trace, dendrogram, per-rank traffic, census, balance and the busy
// breakdown — on the golden fixture and a hub-bearing R-MAT, for both
// partitionings at P = 2, 3, 4. Only wall-clock fields may differ.
func TestTCPTransportMatchesInProcess(t *testing.T) {
	rmat, err := gen.RMAT(gen.Graph500RMAT(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range []struct {
		name  string
		g     *graph.Graph
		dhigh int
	}{{"golden", goldenGraph(t), 0}, {"rmat11", rmat, 64}} {
		for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
			for _, p := range []int{2, 3, 4} {
				name := fmt.Sprintf("%s/%v/p=%d", gr.name, kind, p)
				opt := Options{P: p, Partitioning: kind, DHigh: gr.dhigh, TrackTrace: true, TrackLevels: true}
				want, err := Run(gr.g, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if gr.dhigh > 0 && kind == partition.Delegate && want.HubCount == 0 {
					t.Fatalf("%s: no hubs", name)
				}
				sameResult(t, name, worldResult(t, tcpWorld(t), gr.g, opt), want)
			}
		}
	}
}
