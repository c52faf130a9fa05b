package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// triangle returns K3 with unit weights.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(3, []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTriangleBasics(t *testing.T) {
	g := triangle(t)
	if got := g.NumVertices(); got != 3 {
		t.Errorf("NumVertices = %d, want 3", got)
	}
	if got := g.NumArcs(); got != 6 {
		t.Errorf("NumArcs = %d, want 6", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if got := g.TotalWeight2(); got != 6 {
		t.Errorf("TotalWeight2 = %g, want 6", got)
	}
	for u := 0; u < 3; u++ {
		if got := g.Degree(u); got != 2 {
			t.Errorf("Degree(%d) = %d, want 2", u, got)
		}
		if got := g.WeightedDegree(u); got != 2 {
			t.Errorf("WeightedDegree(%d) = %g, want 2", u, got)
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSelfLoopConventions(t *testing.T) {
	// One edge {0,1} w=2 plus a self-loop {1,1} w=3.
	g, err := FromEdges(2, []Edge{{0, 1, 2}, {1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumArcs(); got != 3 {
		t.Errorf("NumArcs = %d, want 3 (two arcs + one self arc)", got)
	}
	if got := g.NumEdges(); got != 2 {
		t.Errorf("NumEdges = %d, want 2", got)
	}
	if got := g.WeightedDegree(1); got != 5 {
		t.Errorf("WeightedDegree(1) = %g, want 5 (2 + 3)", got)
	}
	if got := g.SelfLoopWeight(1); got != 3 {
		t.Errorf("SelfLoopWeight(1) = %g, want 3", got)
	}
	if got := g.SelfLoopWeight(0); got != 0 {
		t.Errorf("SelfLoopWeight(0) = %g, want 0", got)
	}
	if got := g.TotalWeight2(); got != 7 {
		t.Errorf("TotalWeight2 = %g, want 7", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDuplicateEdgesCombine(t *testing.T) {
	g, err := FromEdges(2, []Edge{{0, 1, 1}, {0, 1, 2}, {1, 0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumArcs(); got != 2 {
		t.Errorf("NumArcs = %d, want 2 after combining", got)
	}
	if got := g.WeightedDegree(0); got != 7 {
		t.Errorf("WeightedDegree(0) = %g, want 7", got)
	}
	ts, ws := g.Neighbors(0)
	if len(ts) != 1 || ts[0] != 1 || ws[0] != 7 {
		t.Errorf("Neighbors(0) = %v %v, want [1] [7]", ts, ws)
	}
}

func TestZeroWeightMeansUnit(t *testing.T) {
	g, err := FromEdges(2, []Edge{{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.WeightedDegree(0); got != 1 {
		t.Errorf("WeightedDegree(0) = %g, want 1", got)
	}
}

func TestOutOfRangeEndpoint(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2, 1}}); err == nil {
		t.Error("expected error for out-of-range endpoint")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0, 1}}); err == nil {
		t.Error("expected error for negative endpoint")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumArcs() != 0 || g.TotalWeight2() != 0 {
		t.Errorf("empty graph not empty: %d %d %g", g.NumVertices(), g.NumArcs(), g.TotalWeight2())
	}
	if g.MaxDegree() != 0 {
		t.Errorf("MaxDegree = %d, want 0", g.MaxDegree())
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for u := 2; u < 5; u++ {
		if g.Degree(u) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", u, g.Degree(u))
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 4, 1}, {0, 2, 1}, {0, 1, 1}, {0, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := g.Neighbors(0)
	for i := 1; i < len(ts); i++ {
		if ts[i-1] >= ts[i] {
			t.Fatalf("Neighbors(0) not sorted: %v", ts)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1, 2}, {1, 2, 3}, {2, 2, 4}}
	g, err := FromEdges(3, orig)
	if err != nil {
		t.Fatal(err)
	}
	back := g.Edges()
	g2, err := FromEdges(3, back)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != g2.NumArcs() || g.TotalWeight2() != g2.TotalWeight2() {
		t.Errorf("round trip mismatch: arcs %d vs %d, 2m %g vs %g",
			g.NumArcs(), g2.NumArcs(), g.TotalWeight2(), g2.TotalWeight2())
	}
}

func TestFromArcListsMismatch(t *testing.T) {
	if _, err := FromArcLists(2, [][]int32{{1}}, [][]float64{{1}}); err == nil {
		t.Error("expected error for wrong list count")
	}
	if _, err := FromArcLists(1, [][]int32{{0, 0}}, [][]float64{{1}}); err == nil {
		t.Error("expected error for ragged lists")
	}
}

func TestMaxDegree(t *testing.T) {
	// star: center degree 3, leaves degree 1
	g, err := FromEdges(4, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

// randomEdges yields a deterministic random edge list.
func randomEdges(n, e int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	es := make([]Edge, e)
	for i := range es {
		es[i] = Edge{U: rng.Intn(n), V: rng.Intn(n), W: 1 + rng.Float64()}
	}
	return es
}

func TestQuickSymmetryInvariant(t *testing.T) {
	f := func(seed int64) bool {
		n := 30
		g, err := FromEdges(n, randomEdges(n, 120, seed))
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDegreeSumEquals2m(t *testing.T) {
	f := func(seed int64) bool {
		n := 25
		g, err := FromEdges(n, randomEdges(n, 80, seed))
		if err != nil {
			return false
		}
		var sum float64
		for u := 0; u < n; u++ {
			sum += g.WeightedDegree(u)
		}
		return math.Abs(sum-g.TotalWeight2()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestModularityKnownValues(t *testing.T) {
	// Two disjoint triangles: all-in-one-community-per-triangle gives
	// Q = 2 * (6/12 / ... ). For two K3 components, 2m = 12.
	// Each triangle community: in = 6 (3 edges × 2 arcs), tot = 6.
	// Q = 2 × (6/12 − (6/12)²) = 2 × (0.5 − 0.25) = 0.5.
	g, err := FromEdges(6, []Edge{
		{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
		{3, 4, 1}, {4, 5, 1}, {3, 5, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := Membership{0, 0, 0, 1, 1, 1}
	if got := Modularity(g, m); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Modularity = %g, want 0.5", got)
	}
	// Everything in one community: Q = 1 − 1 = 0... in = 12, tot = 12:
	// Q = 12/12 − 1² = 0.
	all := Membership{7, 7, 7, 7, 7, 7}
	if got := Modularity(g, all); math.Abs(got) > 1e-12 {
		t.Errorf("Modularity(one community) = %g, want 0", got)
	}
	// Singletons: Q = −Σ (k/2m)² = −6×(2/12)² = −1/6.
	single := Membership{0, 1, 2, 3, 4, 5}
	if got := Modularity(g, single); math.Abs(got+1.0/6) > 1e-12 {
		t.Errorf("Modularity(singletons) = %g, want -1/6", got)
	}
}

func TestModularityBounds(t *testing.T) {
	f := func(seed int64) bool {
		n := 20
		g, err := FromEdges(n, randomEdges(n, 60, seed))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5555))
		m := make(Membership, n)
		for i := range m {
			m[i] = rng.Intn(5)
		}
		q := Modularity(g, m)
		return q >= -1.0-1e-9 && q <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipNormalize(t *testing.T) {
	m := Membership{42, 7, 42, 9, 7}
	k := m.Normalize()
	if k != 3 {
		t.Errorf("Normalize K = %d, want 3", k)
	}
	want := Membership{0, 1, 0, 2, 1}
	for i := range m {
		if m[i] != want[i] {
			t.Errorf("m = %v, want %v", m, want)
			break
		}
	}
	if m.NumCommunities() != 3 {
		t.Errorf("NumCommunities = %d, want 3", m.NumCommunities())
	}
	s := m.Sizes()
	if s[0] != 2 || s[1] != 2 || s[2] != 1 {
		t.Errorf("Sizes = %v", s)
	}
}

func TestMembershipClone(t *testing.T) {
	m := Membership{1, 2, 3}
	c := m.Clone()
	c[0] = 99
	if m[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestModularityPanicsOnLengthMismatch(t *testing.T) {
	g := triangle(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Modularity(g, Membership{0})
}

func TestModularityResolution(t *testing.T) {
	g, err := FromEdges(6, []Edge{
		{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
		{3, 4, 1}, {4, 5, 1}, {3, 5, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := Membership{0, 0, 0, 1, 1, 1}
	// γ=1 matches plain Modularity.
	if ModularityResolution(g, m, 1) != Modularity(g, m) {
		t.Error("γ=1 differs from Modularity")
	}
	// Q_γ = Σ [in/2m − γ(tot/2m)²] = 2×(0.5 − γ·0.25).
	for _, gamma := range []float64{0.5, 2, 4} {
		want := 2 * (0.5 - gamma*0.25)
		if got := ModularityResolution(g, m, gamma); math.Abs(got-want) > 1e-12 {
			t.Errorf("γ=%g: Q = %g, want %g", gamma, got, want)
		}
	}
}

// fromEdgesSerial is the builder FromEdges was before the counting sort
// became the only one: scatter arcs by source in edge order, sort.Stable
// each vertex's arcs by target, combine duplicates left to right, then the
// wdeg/m2/loops caches in one serial pass. Kept as the oracle the counting
// sort is compared with, bit for bit.
func fromEdgesSerial(n int, edges []Edge) (*Graph, error) {
	offsets := make([]int64, n+1)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) endpoint out of range [0,%d)", e.U, e.V, n)
		}
		offsets[e.U+1]++
		if e.V != e.U {
			offsets[e.V+1]++
		}
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]int32, offsets[n])
	weights := make([]float64, offsets[n])
	fill := make([]int64, n)
	put := func(u, v int, w float64) {
		a := offsets[u] + fill[u]
		targets[a] = int32(v)
		weights[a] = w
		fill[u]++
	}
	for _, e := range edges {
		w := e.W
		if w == 0 {
			w = 1
		}
		put(e.U, e.V, w)
		if e.V != e.U {
			put(e.V, e.U, w)
		}
	}
	g := &Graph{offsets: offsets, targets: targets, weights: weights}
	g.sortAndCombine()
	g.wdeg = make([]float64, n)
	for u := 0; u < n; u++ {
		var k float64
		for a := g.offsets[u]; a < g.offsets[u+1]; a++ {
			k += g.weights[a]
			if int(g.targets[a]) == u {
				g.loops++
			}
		}
		g.wdeg[u] = k
		g.m2 += k
	}
	return g, nil
}
