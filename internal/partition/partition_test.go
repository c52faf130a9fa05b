package partition

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func star(t *testing.T, leaves int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, leaves)
	for i := 0; i < leaves; i++ {
		edges[i] = graph.Edge{U: 0, V: i + 1, W: 1}
	}
	g, err := graph.FromEdges(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// allArcs flattens a layout's arcs into (src, dst, w) triples.
func allArcs(l *Layout) [][3]float64 {
	var out [][3]float64
	for _, sp := range l.Parts {
		for i, u := range sp.Owned {
			for _, a := range sp.AdjOwned[i] {
				out = append(out, [3]float64{float64(u), float64(a.To), Dequantise(a.W)})
			}
		}
		for i, h := range sp.Hubs {
			for _, a := range sp.AdjHub[i] {
				out = append(out, [3]float64{float64(h), float64(a.To), Dequantise(a.W)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		if out[i][1] != out[j][1] {
			return out[i][1] < out[j][1]
		}
		return out[i][2] < out[j][2]
	})
	return out
}

// graphArcs flattens g's arcs into (src, dst, w) triples in π-space, the
// ids a layout holds.
func graphArcs(g *graph.Graph) [][3]float64 {
	var out [][3]float64
	pi, _ := scrambleTables(g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.ArcRange(u)
		for a := lo; a < hi; a++ {
			out = append(out, [3]float64{float64(pi[u]), float64(pi[g.ArcTarget(a)]), g.ArcWeight(a)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		if out[i][1] != out[j][1] {
			return out[i][1] < out[j][1]
		}
		return out[i][2] < out[j][2]
	})
	return out
}

func checkArcConservation(t *testing.T, g *graph.Graph, l *Layout) {
	t.Helper()
	got := allArcs(l)
	want := graphArcs(g)
	if len(got) != len(want) {
		t.Fatalf("arc count: layout %d, graph %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arc %d: layout %v, graph %v", i, got[i], want[i])
		}
	}
}

func TestOneDConservesArcs(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 7} {
		l, err := Build(g, Options{P: p, Kind: OneD})
		if err != nil {
			t.Fatal(err)
		}
		checkArcConservation(t, g, l)
		if len(l.Hubs) != 0 {
			t.Errorf("p=%d: 1D layout has hubs", p)
		}
	}
}

func TestDelegateConservesArcs(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 5} {
		l, err := Build(g, Options{P: p, Kind: Delegate})
		if err != nil {
			t.Fatal(err)
		}
		checkArcConservation(t, g, l)
	}
}

func TestEachLowVertexOwnedOnce(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := 4
	l, err := Build(g, Options{P: p, Kind: Delegate})
	if err != nil {
		t.Fatal(err)
	}
	hubSet := make(map[int]bool)
	for _, h := range l.Hubs {
		hubSet[h] = true
	}
	seen := make(map[int]int)
	for _, sp := range l.Parts {
		for _, u := range sp.Owned {
			seen[u]++
			if hubSet[u] {
				t.Errorf("hub %d appears in Owned", u)
			}
			if Owner(u, p) != sp.Rank {
				t.Errorf("vertex %d owned by rank %d, want %d", u, sp.Rank, Owner(u, p))
			}
		}
	}
	for u := 0; u < g.NumVertices(); u++ {
		if hubSet[u] {
			continue
		}
		if seen[u] != 1 {
			t.Errorf("low vertex %d owned %d times", u, seen[u])
		}
	}
}

func TestOwnedAdjacencyComplete(t *testing.T) {
	// The owner of a low vertex must see its entire neighborhood.
	g, err := gen.RMAT(gen.Graph500RMAT(7, 9))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, Options{P: 3, Kind: Delegate})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range l.Parts {
		for i, x := range sp.Owned {
			u := int(sp.PiInv[x])
			if len(sp.AdjOwned[i]) != g.Degree(u) {
				t.Errorf("vertex %d: local adjacency %d, degree %d", u, len(sp.AdjOwned[i]), g.Degree(u))
			}
			if Dequantise(sp.OwnedWDeg[i]) != g.WeightedDegree(u) {
				t.Errorf("vertex %d: OwnedWDeg %d, want %g", u, sp.OwnedWDeg[i], g.WeightedDegree(u))
			}
		}
	}
}

func TestHubThresholdRespected(t *testing.T) {
	g := star(t, 40)
	l, err := Build(g, Options{P: 4, Kind: Delegate, DHigh: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Hubs) != 1 || l.Hubs[0] != 0 {
		t.Fatalf("Hubs = %v, want [0]", l.Hubs)
	}
	if l.DHigh != 10 {
		t.Errorf("DHigh = %d", l.DHigh)
	}
	// The default keeps the centre a hub, and only it: with the centre's 40
	// arcs on rank 0 its load is 50 of 80 at P = 4, far over 1.1 × the mean
	// of 20; delegated, rank 0 keeps its 10 leaves. So the threshold is the
	// centre's degree, not the floor max(P, 4·80/41) = 7.
	l, err = Build(g, Options{P: 4, Kind: Delegate})
	if err != nil {
		t.Fatal(err)
	}
	if l.DHigh != 40 || len(l.Hubs) != 1 || l.Hubs[0] != 0 {
		t.Errorf("default DHigh = %d, hubs %v; want 40, [0]", l.DHigh, l.Hubs)
	}
}

func TestDelegateBalancesStar(t *testing.T) {
	// One giant hub: 1D piles every arc onto the hub owner; delegate
	// partitioning must spread them out.
	g := star(t, 1000)
	p := 8
	oneD, err := Build(g, Options{P: p, Kind: OneD})
	if err != nil {
		t.Fatal(err)
	}
	del, err := Build(g, Options{P: p, Kind: Delegate, DHigh: 100})
	if err != nil {
		t.Fatal(err)
	}
	w1 := oneD.Census().ImbalanceW()
	wd := del.Census().ImbalanceW()
	if w1 < 2 {
		t.Errorf("1D imbalance W = %.2f, expected severe (>2)", w1)
	}
	if wd > 0.1 {
		t.Errorf("delegate imbalance W = %.2f, expected ~0", wd)
	}
}

func TestDelegateImbalanceOnScaleFree(t *testing.T) {
	g, err := gen.BarabasiAlbert(2000, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 8, 16} {
		oneD, err := Build(g, Options{P: p, Kind: OneD})
		if err != nil {
			t.Fatal(err)
		}
		// The default threshold buys balance only down to hubSlack; the
		// paper's dhigh = p delegates enough to balance the arcs fully.
		def, err := Build(g, Options{P: p, Kind: Delegate})
		if err != nil {
			t.Fatal(err)
		}
		del, err := Build(g, Options{P: p, Kind: Delegate, DHigh: p})
		if err != nil {
			t.Fatal(err)
		}
		w1 := oneD.Census().ImbalanceW()
		wdef := def.Census().ImbalanceW()
		wd := del.Census().ImbalanceW()
		if wdef > w1 || wd > w1 {
			t.Errorf("p=%d: delegate W %.3f (default) or %.3f (DHigh = p) worse than 1D W %.3f", p, wdef, wd, w1)
		}
		if wdef > hubSlack {
			t.Errorf("p=%d: default delegate W = %.3f, want <= %g", p, wdef, hubSlack)
		}
		if wd > 0.05 {
			t.Errorf("p=%d: DHigh = p delegate W = %.3f, want near 0", p, wd)
		}
	}
}

func TestGhostsAndSubscribersConsistent(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := 4
	for _, kind := range []Kind{OneD, Delegate} {
		l, err := Build(g, Options{P: p, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		hubSet := make(map[int]bool)
		for _, h := range l.Hubs {
			hubSet[h] = true
		}
		for _, sp := range l.Parts {
			// every ghost is a low vertex owned elsewhere
			for _, v := range sp.Ghosts {
				if hubSet[v] {
					t.Errorf("%v rank %d: hub %d listed as ghost", kind, sp.Rank, v)
				}
				if Owner(v, p) == sp.Rank {
					t.Errorf("%v rank %d: owns its ghost %d", kind, sp.Rank, v)
				}
				// owner must list this rank as subscriber
				owner := l.Parts[Owner(v, p)]
				found := false
				for _, s := range owner.Subscribers[v] {
					if s == sp.Rank {
						found = true
					}
				}
				if !found {
					t.Errorf("%v: rank %d ghost %d missing from owner subscribers", kind, sp.Rank, v)
				}
			}
			// every arc target is local (owned or hub) or a listed ghost
			ghostSet := make(map[int]bool)
			for _, v := range sp.Ghosts {
				ghostSet[v] = true
			}
			check := func(v int) {
				if hubSet[v] || Owner(v, p) == sp.Rank || ghostSet[v] {
					return
				}
				t.Errorf("%v rank %d: arc target %d is neither local nor ghost", kind, sp.Rank, v)
			}
			for _, adj := range sp.AdjOwned {
				for _, a := range adj {
					check(a.To)
				}
			}
			for _, adj := range sp.AdjHub {
				for _, a := range adj {
					check(a.To)
				}
			}
		}
	}
}

func TestSingleRankLayout(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, Options{P: 1, Kind: Delegate})
	if err != nil {
		t.Fatal(err)
	}
	sp := l.Parts[0]
	if len(sp.Ghosts) != 0 {
		t.Errorf("single rank has %d ghosts", len(sp.Ghosts))
	}
	if sp.NumLocalArcs() != g.NumArcs() {
		t.Errorf("arcs %d, want %d", sp.NumLocalArcs(), g.NumArcs())
	}
}

func TestBuildInvalidP(t *testing.T) {
	g := star(t, 3)
	if _, err := Build(g, Options{P: 0, Kind: OneD}); err == nil {
		t.Fatal("expected error for P = 0")
	}
	if _, err := Build(g, Options{P: 2, Kind: 9}); err == nil {
		t.Fatal("expected error for Kind(9)")
	}
}

func TestCensusMeasures(t *testing.T) {
	c := Census{ArcsPerRank: []int64{10, 20, 30}, GhostsPerRank: []int{1, 5, 3}}
	if got := c.ImbalanceW(); got != 0.5 {
		t.Errorf("ImbalanceW = %g, want 0.5 (30/20 - 1)", got)
	}
	if got := c.MaxGhosts(); got != 5 {
		t.Errorf("MaxGhosts = %d, want 5", got)
	}
	if got := c.TotalArcs(); got != 60 {
		t.Errorf("TotalArcs = %d, want 60", got)
	}
	empty := Census{}
	if empty.ImbalanceW() != 0 {
		t.Error("empty census W != 0")
	}
}

func TestKindString(t *testing.T) {
	if OneD.String() != "1d" || Delegate.String() != "delegate" {
		t.Error("Kind.String broken")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind.String broken")
	}
}

func TestGhostReductionWithMoreRanks(t *testing.T) {
	// Figure 6(d): with delegate partitioning the max ghost count should
	// not explode as p grows (hubs are delegated, not ghosted).
	g, err := gen.BarabasiAlbert(3000, 5, 23)
	if err != nil {
		t.Fatal(err)
	}
	var prev int
	for i, p := range []int{4, 16} {
		// Pin DHigh so the hub set is identical at both processor counts.
		l, err := Build(g, Options{P: p, Kind: Delegate, DHigh: 50})
		if err != nil {
			t.Fatal(err)
		}
		mg := l.Census().MaxGhosts()
		if i == 1 && prev > 0 && mg > prev {
			t.Errorf("max ghosts should shrink with p: p=4 %d → p=16 %d", prev, mg)
		}
		prev = mg
	}
}

func TestIsolatedVerticesStayOwned(t *testing.T) {
	g, err := graph.FromEdges(10, []graph.Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, Options{P: 3, Kind: Delegate})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, sp := range l.Parts {
		count += len(sp.Owned)
	}
	if count != 10 {
		t.Errorf("owned %d vertices, want all 10 (isolated vertices must not vanish)", count)
	}
}

func ExampleCensus_ImbalanceW() {
	c := Census{ArcsPerRank: []int64{100, 100, 100, 100}}
	fmt.Printf("W = %.2f\n", c.ImbalanceW())
	// Output: W = 0.00
}

func TestRebalanceHandlesHubOnlyGraph(t *testing.T) {
	// A clique where every vertex is a hub: all arcs are in the movable
	// pool and must still be conserved and balanced.
	n := 20
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, Options{P: 4, Kind: Delegate, DHigh: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Hubs) != n {
		t.Fatalf("hubs = %d, want all %d", len(l.Hubs), n)
	}
	checkArcConservation(t, g, l)
	if w := l.Census().ImbalanceW(); w > 0.05 {
		t.Errorf("W = %.3f on a fully-movable graph", w)
	}
	// No vertex is owned; nothing may be lost.
	for _, sp := range l.Parts {
		if len(sp.Owned) != 0 {
			t.Errorf("rank %d owns %d vertices in an all-hub graph", sp.Rank, len(sp.Owned))
		}
	}
}

func TestDelegateMoreRanksThanArcs(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, Options{P: 8, Kind: Delegate, DHigh: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkArcConservation(t, g, l)
	if got := l.Census().TotalArcs(); got != g.NumArcs() {
		t.Errorf("TotalArcs = %d, want %d", got, g.NumArcs())
	}
}

func TestDHighAboveMaxDegreeMeansNoHubs(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, Options{P: 4, Kind: Delegate, DHigh: g.MaxDegree() + 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Hubs) != 0 {
		t.Errorf("hubs = %d, want 0", len(l.Hubs))
	}
	// Degenerates to 1D: same census as OneD.
	oneD, err := Build(g, Options{P: 4, Kind: OneD})
	if err != nil {
		t.Fatal(err)
	}
	cd, c1 := l.Census(), oneD.Census()
	for r := range cd.ArcsPerRank {
		if cd.ArcsPerRank[r] != c1.ArcsPerRank[r] {
			t.Errorf("rank %d arcs differ from 1D: %d vs %d", r, cd.ArcsPerRank[r], c1.ArcsPerRank[r])
		}
	}
}

func TestSelfLoopArcsStayWithOwner(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 2, V: 2, W: 3}, {U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(g, Options{P: 3, Kind: Delegate})
	if err != nil {
		t.Fatal(err)
	}
	checkArcConservation(t, g, l)
	// Vertex 2's self-loop lives on its owner.
	x := int(l.Parts[0].Pi[2])
	sp := l.Parts[Owner(x, 3)]
	found := false
	for i, u := range sp.Owned {
		if u != x {
			continue
		}
		for _, a := range sp.AdjOwned[i] {
			if a.To == x && Dequantise(a.W) == 3 {
				found = true
			}
		}
	}
	if !found {
		t.Error("self-loop arc missing from owner")
	}
}
