package louvain

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestTwoTriangles(t *testing.T) {
	g, err := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{})
	if res.Membership.NumCommunities() != 2 {
		t.Errorf("found %d communities, want 2", res.Membership.NumCommunities())
	}
	if res.Membership[0] != res.Membership[1] || res.Membership[1] != res.Membership[2] {
		t.Errorf("triangle 1 split: %v", res.Membership)
	}
	if res.Membership[3] != res.Membership[4] || res.Membership[4] != res.Membership[5] {
		t.Errorf("triangle 2 split: %v", res.Membership)
	}
	if math.Abs(res.Modularity-0.5) > 1e-9 {
		t.Errorf("Modularity = %g, want 0.5", res.Modularity)
	}
}

func TestBridgedTriangles(t *testing.T) {
	// Two triangles joined by one edge should still split in two.
	g, err := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
		{U: 2, V: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{})
	if res.Membership.NumCommunities() != 2 {
		t.Errorf("found %d communities, want 2 (membership %v)", res.Membership.NumCommunities(), res.Membership)
	}
	if res.Modularity < 0.35 {
		t.Errorf("Modularity = %g, want > 0.35", res.Modularity)
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{})
	if len(res.Membership) != 0 || res.Modularity != 0 {
		t.Errorf("empty graph: %+v", res)
	}

	g, err = graph.FromEdges(4, nil) // no edges
	if err != nil {
		t.Fatal(err)
	}
	res = Run(g, Options{})
	if len(res.Membership) != 4 {
		t.Errorf("edgeless: membership %v", res.Membership)
	}
}

func TestSingleEdge(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{})
	if res.Membership[0] != res.Membership[1] {
		t.Errorf("endpoints of a single edge should merge: %v", res.Membership)
	}
	if math.Abs(res.Modularity) > 1e-9 {
		t.Errorf("Modularity = %g, want 0", res.Modularity)
	}
}

func TestCavemanRecovery(t *testing.T) {
	g, truth, err := gen.Caveman(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{})
	if got := res.Membership.NumCommunities(); got != 8 {
		t.Errorf("found %d communities, want 8", got)
	}
	// detected must match planted exactly up to relabeling
	seen := make(map[int]int)
	for i := range truth {
		if want, ok := seen[truth[i]]; ok {
			if res.Membership[i] != want {
				t.Fatalf("clique %d split between communities", truth[i])
			}
		} else {
			seen[truth[i]] = res.Membership[i]
		}
	}
}

func TestModularityNeverDecreasesAcrossLevels(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 0.3, 4))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{})
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Modularity < res.Levels[i-1].Modularity-1e-9 {
			t.Errorf("level %d modularity %g < level %d %g",
				i, res.Levels[i].Modularity, i-1, res.Levels[i-1].Modularity)
		}
	}
	if res.Modularity < 0.3 {
		t.Errorf("final modularity %g too low for LFR(mu=0.3)", res.Modularity)
	}
}

func TestTraceMonotoneWithinFirstLevel(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.2, 8))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{TrackTrace: true})
	if len(res.QTrace) == 0 {
		t.Fatal("no trace recorded")
	}
	for i := 1; i < len(res.QTrace); i++ {
		if res.QTrace[i] < res.QTrace[i-1]-1e-9 {
			t.Errorf("trace decreased at sweep %d: %g → %g", i, res.QTrace[i-1], res.QTrace[i])
		}
	}
}

func TestDeterministic(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(500, 0.25, 3))
	if err != nil {
		t.Fatal(err)
	}
	r1 := Run(g, Options{})
	r2 := Run(g, Options{})
	if r1.Modularity != r2.Modularity {
		t.Errorf("nondeterministic modularity: %g vs %g", r1.Modularity, r2.Modularity)
	}
	for i := range r1.Membership {
		if r1.Membership[i] != r2.Membership[i] {
			t.Fatal("nondeterministic membership")
		}
	}
}

func TestAggregatePreservesWeight(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(300, 0.3, 2))
	if err != nil {
		t.Fatal(err)
	}
	labels := make(graph.Membership, g.NumVertices())
	for i := range labels {
		labels[i] = i % 10
	}
	k := labels.Normalize()
	ag := Aggregate(g, labels, k)
	if math.Abs(ag.TotalWeight2()-g.TotalWeight2()) > 1e-6 {
		t.Errorf("2m changed: %g → %g", g.TotalWeight2(), ag.TotalWeight2())
	}
	// Modularity of the partition is preserved on the coarse graph when
	// each coarse vertex is its own community.
	coarse := make(graph.Membership, k)
	for i := range coarse {
		coarse[i] = i
	}
	q1 := graph.Modularity(g, labels)
	q2 := graph.Modularity(ag, coarse)
	if math.Abs(q1-q2) > 1e-9 {
		t.Errorf("aggregation broke modularity: %g vs %g", q1, q2)
	}
}

func TestAggregateIdempotentOnSingletons(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 2, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	labels := graph.Membership{0, 1, 2, 3}
	ag := Aggregate(g, labels, 4)
	if ag.NumVertices() != 4 || ag.NumArcs() != g.NumArcs() {
		t.Errorf("singleton aggregation changed the graph: %d vertices %d arcs",
			ag.NumVertices(), ag.NumArcs())
	}
}

func TestQuickAggregationPreservesModularity(t *testing.T) {
	f := func(seed int64) bool {
		g, _, err := gen.SBM([]int{20, 20, 20}, 0.3, 0.05, seed)
		if err != nil {
			return false
		}
		labels := make(graph.Membership, g.NumVertices())
		rngLabel := int(seed)
		if rngLabel < 0 {
			rngLabel = -rngLabel
		}
		for i := range labels {
			labels[i] = (i*7 + rngLabel) % 5
		}
		k := labels.Normalize()
		ag := Aggregate(g, labels, k)
		coarse := make(graph.Membership, k)
		for i := range coarse {
			coarse[i] = i
		}
		return math.Abs(graph.Modularity(g, labels)-graph.Modularity(ag, coarse)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedGraphPreference(t *testing.T) {
	// A path 0-1-2 where edge (0,1) is heavy: 1 should join 0, not 2.
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{})
	if res.Membership[0] != res.Membership[1] {
		t.Errorf("heavy edge not merged: %v", res.Membership)
	}
}

func TestResolutionControlsGranularity(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 0.25, 44))
	if err != nil {
		t.Fatal(err)
	}
	coarse := Run(g, Options{Resolution: 0.25})
	std := Run(g, Options{})
	fine := Run(g, Options{Resolution: 4})
	kc, ks, kf := coarse.Membership.NumCommunities(), std.Membership.NumCommunities(), fine.Membership.NumCommunities()
	if !(kc <= ks && ks <= kf) {
		t.Errorf("community counts not monotone in γ: γ=0.25→%d, γ=1→%d, γ=4→%d", kc, ks, kf)
	}
}
