package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/partition"
	"repro/internal/quality"
)

func mustLFR(t testing.TB, n int, mu float64, seed int64) (*graph.Graph, graph.Membership) {
	t.Helper()
	g, m, err := gen.LFR(gen.DefaultLFR(n, mu, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// checkResult verifies the structural invariants every run must satisfy:
// full membership, dense labels, and a self-consistent reported modularity.
func checkResult(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if len(res.Membership) != g.NumVertices() {
		t.Fatalf("membership covers %d of %d vertices", len(res.Membership), g.NumVertices())
	}
	k := res.Membership.NumCommunities()
	for _, c := range res.Membership {
		if c < 0 || c >= k {
			t.Fatalf("label %d not dense in [0,%d)", c, k)
		}
	}
	want := graph.Modularity(g, res.Membership)
	if math.Abs(res.Modularity-want) > 1e-6 {
		t.Errorf("reported Q = %.9f but membership Q = %.9f", res.Modularity, want)
	}
}

func TestTwoTrianglesAcrossRanks(t *testing.T) {
	g, err := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 6} {
		res, err := Run(g, Options{P: p})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkResult(t, g, res)
		if got := res.Membership.NumCommunities(); got != 2 {
			t.Errorf("p=%d: %d communities, want 2 (membership %v)", p, got, res.Membership)
		}
		if math.Abs(res.Modularity-0.5) > 1e-9 {
			t.Errorf("p=%d: Q = %g, want 0.5", p, res.Modularity)
		}
	}
}

func TestSingleRankMatchesSequentialQuality(t *testing.T) {
	g, _ := mustLFR(t, 600, 0.25, 42)
	seq := louvain.Run(g, louvain.Options{})
	res, err := Run(g, Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, res)
	if math.Abs(res.Modularity-seq.Modularity) > 0.05 {
		t.Errorf("p=1 Q = %.4f, sequential Q = %.4f (want within 0.05)", res.Modularity, seq.Modularity)
	}
}

func TestParallelMatchesSequentialQuality(t *testing.T) {
	// The paper's central convergence claim (Figure 5): the enhanced
	// heuristic converges to a modularity close to sequential Louvain.
	for _, seed := range []int64{7, 19} {
		g, _ := mustLFR(t, 800, 0.3, seed)
		seq := louvain.Run(g, louvain.Options{})
		for _, p := range []int{4, 8} {
			res, err := Run(g, Options{P: p, Heuristic: HeuristicEnhanced})
			if err != nil {
				t.Fatalf("seed=%d p=%d: %v", seed, p, err)
			}
			checkResult(t, g, res)
			if res.Modularity < seq.Modularity-0.06 {
				t.Errorf("seed=%d p=%d: Q = %.4f, sequential = %.4f", seed, p, res.Modularity, seq.Modularity)
			}
		}
	}
}

func TestCavemanExactRecovery(t *testing.T) {
	g, truth, err := gen.Caveman(10, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		res, err := Run(g, Options{P: p})
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, g, res)
		s, err := quality.Compare(res.Membership, truth)
		if err != nil {
			t.Fatal(err)
		}
		if s.NMI < 0.95 {
			t.Errorf("p=%d: NMI = %.3f, want ≈ 1 on caveman", p, s.NMI)
		}
	}
}

func TestLFRQualityVsTruth(t *testing.T) {
	// The paper's Table II: NMI above 0.8 on community-rich graphs.
	g, truth := mustLFR(t, 1000, 0.2, 33)
	res, err := Run(g, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, res)
	s, err := quality.Compare(res.Membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if s.NMI < 0.75 {
		t.Errorf("NMI = %.3f, want >= 0.75", s.NMI)
	}
}

func TestDeterministicForFixedP(t *testing.T) {
	g, _ := mustLFR(t, 500, 0.3, 5)
	r1, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Modularity != r2.Modularity {
		t.Errorf("nondeterministic Q: %v vs %v", r1.Modularity, r2.Modularity)
	}
	for i := range r1.Membership {
		if r1.Membership[i] != r2.Membership[i] {
			t.Fatal("nondeterministic membership")
		}
	}
}

func TestOneDPartitioningBaseline(t *testing.T) {
	// The 1D baseline must produce valid, comparable-quality results
	// (it is the comparator of Figure 7, not a strawman).
	// DHigh is set explicitly: at toy scale the paper's dhigh = p would
	// delegate every vertex (p is below the average degree), which is
	// outside the regime the paper runs in (p in the thousands).
	g, _ := mustLFR(t, 600, 0.25, 11)
	del, err := Run(g, Options{P: 4, Partitioning: partition.Delegate, DHigh: 50})
	if err != nil {
		t.Fatal(err)
	}
	oneD, err := Run(g, Options{P: 4, Partitioning: partition.OneD})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, del)
	checkResult(t, g, oneD)
	if math.Abs(del.Modularity-oneD.Modularity) > 0.1 {
		t.Errorf("delegate Q %.4f vs 1D Q %.4f differ too much", del.Modularity, oneD.Modularity)
	}
	if oneD.HubCount != 0 {
		t.Errorf("1D run reports %d hubs", oneD.HubCount)
	}
}

func TestHeuristicOrderingOnQuality(t *testing.T) {
	// Figure 5's qualitative claim: the enhanced heuristic converges to a
	// clearly higher modularity than the simple minimum-label heuristic.
	g, _ := mustLFR(t, 900, 0.25, 23)
	enh, err := Run(g, Options{P: 8, DHigh: 40, Heuristic: HeuristicEnhanced})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Run(g, Options{P: 8, DHigh: 40, Heuristic: HeuristicSimple})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, enh)
	checkResult(t, g, sim)
	if enh.Modularity < sim.Modularity+0.02 {
		t.Errorf("enhanced Q %.4f should clearly beat simple Q %.4f", enh.Modularity, sim.Modularity)
	}
}

func TestHeuristicSimpleStillTerminates(t *testing.T) {
	// The simple heuristic may never reach a fixed point (the bouncing
	// problem); the iteration cap must still terminate the run with a
	// valid, self-consistent result.
	g, _ := mustLFR(t, 300, 0.3, 9)
	res, err := Run(g, Options{P: 4, Heuristic: HeuristicSimple, MaxInnerIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, res)
}

func TestStarGraphHubDelegation(t *testing.T) {
	// A star has one massive hub; with DHigh below its degree the hub is
	// delegated and the run must still converge to one community.
	edges := make([]graph.Edge, 200)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: i + 1, W: 1}
	}
	g, err := graph.FromEdges(201, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 4, DHigh: 50})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, res)
	if res.HubCount != 1 {
		t.Errorf("HubCount = %d, want 1", res.HubCount)
	}
	// A star's optimal modularity partition keeps leaves with the hub.
	if res.Membership.NumCommunities() > 3 {
		t.Errorf("star split into %d communities", res.Membership.NumCommunities())
	}
}

func TestEdgelessGraph(t *testing.T) {
	g, err := graph.FromEdges(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Membership) != 7 {
		t.Fatalf("membership %v", res.Membership)
	}
	if res.Modularity != 0 {
		t.Errorf("Q = %g, want 0", res.Modularity)
	}
}

func TestIsolatedVerticesKept(t *testing.T) {
	g, err := graph.FromEdges(10, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, res)
	if len(res.Membership) != 10 {
		t.Fatalf("membership lost vertices: %v", res.Membership)
	}
}

func TestWeightedGraph(t *testing.T) {
	// Heavy intra-block weights must dominate topology.
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 10}, {U: 2, V: 3, W: 10}, {U: 1, V: 2, W: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, res)
	if res.Membership[0] != res.Membership[1] || res.Membership[2] != res.Membership[3] {
		t.Errorf("weighted pairs split: %v", res.Membership)
	}
	if res.Membership[1] == res.Membership[2] {
		t.Errorf("weak bridge merged: %v", res.Membership)
	}
}

// TestTrackTrace: every run fills Result.QTrace, one Q per iteration of
// every stage, ending at the final Q.
func TestTrackTrace(t *testing.T) {
	g, _ := mustLFR(t, 400, 0.25, 3)
	res, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QTrace) == 0 {
		t.Fatal("no QTrace recorded")
	}
	last := res.QTrace[len(res.QTrace)-1]
	if math.Abs(last-res.Modularity) > 1e-9 {
		t.Errorf("trace end %.6f != final Q %.6f", last, res.Modularity)
	}
	// The trace should improve substantially from its first iteration.
	if last < res.QTrace[0] {
		t.Errorf("trace went backwards: %v", res.QTrace)
	}
}

func TestInvalidOptions(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, Options{P: 0}); err == nil {
		t.Fatal("expected error for P = 0")
	}
}

func TestMorePRanksThanVertices(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, res)
}

func TestSelfLoopsHandled(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 0, W: 5}, {U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, res)
}

func TestHeuristicString(t *testing.T) {
	if HeuristicEnhanced.String() != "enhanced" || HeuristicSimple.String() != "simple" {
		t.Error("Heuristic.String broken")
	}
	for _, h := range []Heuristic{HeuristicEnhanced, HeuristicSimple} {
		if got, err := ParseHeuristic(h.String()); got != h || err != nil {
			t.Errorf("ParseHeuristic(%q) = %v, %v", h.String(), got, err)
		}
	}
	if _, err := ParseHeuristic("strict"); err == nil {
		t.Error(`ParseHeuristic("strict") accepted the retired rule`)
	}
}

func TestStage1TimingsPopulated(t *testing.T) {
	g, _ := mustLFR(t, 400, 0.25, 21)
	res, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage1Time <= 0 {
		t.Error("Stage1Time not recorded")
	}
	if res.Stage1Iters < 1 {
		t.Error("Stage1Iters not recorded")
	}
	if res.Breakdown.Iters != res.Stage1Iters {
		t.Errorf("Breakdown.Iters = %d, Stage1Iters = %d", res.Breakdown.Iters, res.Stage1Iters)
	}
	if res.Breakdown.Total() <= 0 {
		t.Error("Breakdown has no time")
	}
	if res.CommStats.TotalBytesSent() <= 0 {
		t.Error("no communication recorded")
	}
}

func TestRMATScaleFreeRun(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(9, 77))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 7} {
		res, err := Run(g, Options{P: p})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkResult(t, g, res)
		// The default threshold's contract: the solve delegates the hubs of
		// the partitioner's layout, and above its floor they hold every
		// rank within 10% of the mean arc load.
		l, err := partition.Build(g, Options{P: p}.PartitionOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.HubCount != len(l.Hubs) {
			t.Errorf("p=%d: %d hubs delegated, the layout has %d", p, res.HubCount, len(l.Hubs))
		}
		floor := max(p, 4*int(g.NumArcs())/g.NumVertices())
		if w := res.Census.ImbalanceW(); l.DHigh > floor && w > 0.1 {
			t.Errorf("p=%d: DHigh %d above the floor %d leaves W = %.3f", p, l.DHigh, floor, w)
		}
		if res.Modularity <= 0 {
			t.Errorf("p=%d: Q = %g", p, res.Modularity)
		}
	}
}

func TestResolutionParameter(t *testing.T) {
	g, _ := mustLFR(t, 600, 0.25, 63)
	std, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Run(g, Options{P: 4, Resolution: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Membership.NumCommunities() <= std.Membership.NumCommunities() {
		t.Errorf("γ=4 gave %d communities, γ=1 gave %d; higher resolution should split more",
			fine.Membership.NumCommunities(), std.Membership.NumCommunities())
	}
	// reported Q must be the generalized modularity
	want := graph.ModularityResolution(g, fine.Membership, 4)
	if math.Abs(fine.Modularity-want) > 1e-6 {
		t.Errorf("reported Q_γ %.6f != recomputed %.6f", fine.Modularity, want)
	}
}

func TestTrackLevelsDendrogram(t *testing.T) {
	g, _ := mustLFR(t, 500, 0.25, 71)
	res, err := Run(g, Options{P: 4, TrackLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelMemberships) == 0 {
		t.Fatal("no levels recorded")
	}
	prev := len(res.Membership) + 1
	for l, m := range res.LevelMemberships {
		if len(m) != g.NumVertices() {
			t.Fatalf("level %d covers %d vertices", l, len(m))
		}
		k := m.NumCommunities()
		if k > prev {
			t.Errorf("level %d has %d communities, more than previous %d", l, k, prev)
		}
		prev = k
	}
	// The last level equals the final membership (up to label identity,
	// which Normalize fixes for both).
	last := res.LevelMemberships[len(res.LevelMemberships)-1]
	for i := range last {
		if last[i] != res.Membership[i] {
			t.Fatal("last level differs from final membership")
		}
	}
}
