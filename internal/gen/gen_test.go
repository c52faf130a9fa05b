package gen

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

func TestPowerLawBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, exp := range []float64{1.0, 1.5, 2.5, 3.0} {
		vs := powerLawInts(rng, 2000, 3, 50, exp)
		for _, v := range vs {
			if v < 3 || v > 50 {
				t.Fatalf("exp=%g: value %d out of [3,50]", exp, v)
			}
		}
	}
}

func TestPowerLawSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vs := powerLawInts(rng, 20000, 1, 1000, 2.5)
	small, large := 0, 0
	for _, v := range vs {
		if v <= 3 {
			small++
		}
		if v >= 100 {
			large++
		}
	}
	if small < len(vs)/2 {
		t.Errorf("power law not skewed: only %d/%d values <= 3", small, len(vs))
	}
	if large == 0 {
		t.Error("power law has no tail: no values >= 100")
	}
	if large > small/10 {
		t.Errorf("tail too heavy: %d large vs %d small", large, small)
	}
}

func TestRMATProperties(t *testing.T) {
	g, err := RMAT(Graph500RMAT(10, 42))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Errorf("NumVertices = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() < 5000 {
		t.Errorf("NumEdges = %d, suspiciously small", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// scale-free: max degree far above average
	avg := float64(g.NumArcs()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 5*avg {
		t.Errorf("MaxDegree = %d vs avg %.1f: not hub-dominated", g.MaxDegree(), avg)
	}
	// no self loops
	for u := 0; u < g.NumVertices(); u++ {
		if g.SelfLoopWeight(u) != 0 {
			t.Fatalf("vertex %d has self-loop", u)
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	g1, err := RMAT(Graph500RMAT(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RMAT(Graph500RMAT(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumArcs() != g2.NumArcs() || g1.TotalWeight2() != g2.TotalWeight2() {
		t.Error("RMAT not deterministic for fixed seed")
	}
	g3, err := RMAT(Graph500RMAT(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumArcs() == g3.NumArcs() && g1.TotalWeight2() == g3.TotalWeight2() {
		t.Error("RMAT identical across different seeds (suspicious)")
	}
}

func TestRMATBadConfig(t *testing.T) {
	cfg := Graph500RMAT(5, 1)
	cfg.A = 0.9 // probabilities no longer sum to 1
	if _, err := RMAT(cfg); err == nil {
		t.Error("expected error for bad quadrant probabilities")
	}
	if _, err := RMAT(RMATConfig{Scale: -1}); err == nil {
		t.Error("expected error for negative scale")
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	g, err := BarabasiAlbert(2000, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	// expected edges: C(5,2) + (2000-5)*4
	wantEdges := int64(10 + 1995*4)
	if g.NumEdges() != wantEdges {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// minimum degree m
	for u := 0; u < g.NumVertices(); u++ {
		if g.Degree(u) < 4 {
			t.Fatalf("vertex %d degree %d < m", u, g.Degree(u))
		}
	}
	// hubs exist
	if g.MaxDegree() < 40 {
		t.Errorf("MaxDegree = %d: no hubs in BA graph", g.MaxDegree())
	}
}

func TestBarabasiAlbertBadArgs(t *testing.T) {
	if _, err := BarabasiAlbert(3, 5, 1); err == nil {
		t.Error("expected error for n < m+1")
	}
	if _, err := BarabasiAlbert(10, 0, 1); err == nil {
		t.Error("expected error for m < 1")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	n, p := 500, 0.05
	g, err := ErdosRenyi(n, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("NumEdges = %g, want ≈ %g", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiEdgeCases(t *testing.T) {
	g, err := ErdosRenyi(10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("p=0: NumEdges = %d", g.NumEdges())
	}
	g, err = ErdosRenyi(10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 45 {
		t.Errorf("p=1: NumEdges = %d, want 45", g.NumEdges())
	}
	if _, err := ErdosRenyi(10, 1.5, 1); err == nil {
		t.Error("expected error for p > 1")
	}
}

func TestUnflattenPair(t *testing.T) {
	n := 7
	idx := int64(0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := unflattenPair(idx, n)
			if gu != u || gv != v {
				t.Fatalf("unflattenPair(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

func TestSBMPlantedStructure(t *testing.T) {
	sizes := []int{50, 50, 50}
	g, member, err := SBM(sizes, 0.3, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 150 || len(member) != 150 {
		t.Fatalf("sizes mismatch: %d vertices, %d labels", g.NumVertices(), len(member))
	}
	// planted membership should score high modularity
	q := graph.Modularity(g, member)
	if q < 0.4 {
		t.Errorf("planted modularity = %g, want > 0.4", q)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSBMBadArgs(t *testing.T) {
	if _, _, err := SBM([]int{0}, 0.5, 0.1, 1); err == nil {
		t.Error("expected error for zero block")
	}
	if _, _, err := SBM([]int{5}, 1.5, 0.1, 1); err == nil {
		t.Error("expected error for pin > 1")
	}
}

func TestCavemanStructure(t *testing.T) {
	g, member, err := Caveman(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 30 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// 6 cliques of C(5,2)=10 edges + 6 ring edges
	if g.NumEdges() != 66 {
		t.Errorf("NumEdges = %d, want 66", g.NumEdges())
	}
	q := graph.Modularity(g, member)
	if q < 0.6 {
		t.Errorf("planted modularity = %g, want > 0.6", q)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCavemanTwoCliquesNoDuplicateBridge(t *testing.T) {
	g, _, err := Caveman(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 2 triangles (3 edges each) + 1 bridge
	if g.NumEdges() != 7 {
		t.Errorf("NumEdges = %d, want 7", g.NumEdges())
	}
}

func TestLFRBasics(t *testing.T) {
	cfg := DefaultLFR(1000, 0.2, 9)
	g, member, err := LFR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 || len(member) != 1000 {
		t.Fatalf("size mismatch: %d vertices, %d labels", g.NumVertices(), len(member))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// no isolated vertices
	for u := 0; u < g.NumVertices(); u++ {
		if g.Degree(u) == 0 {
			t.Fatalf("vertex %d isolated", u)
		}
	}
	// planted communities give good modularity at low mixing
	q := graph.Modularity(g, member)
	if q < 0.4 {
		t.Errorf("planted modularity = %g, want > 0.4", q)
	}
}

func TestLFRMixingControlsModularity(t *testing.T) {
	qLow, qHigh := 0.0, 0.0
	for i, mu := range []float64{0.1, 0.6} {
		g, member, err := LFR(DefaultLFR(800, mu, 21))
		if err != nil {
			t.Fatal(err)
		}
		q := graph.Modularity(g, member)
		if i == 0 {
			qLow = q
		} else {
			qHigh = q
		}
	}
	if qLow <= qHigh {
		t.Errorf("modularity should fall with mixing: mu=0.1 gives %g, mu=0.6 gives %g", qLow, qHigh)
	}
}

func TestLFRObservedMixing(t *testing.T) {
	mu := 0.3
	g, member, err := LFR(DefaultLFR(2000, mu, 13))
	if err != nil {
		t.Fatal(err)
	}
	var inW, totW float64
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.ArcRange(u)
		for a := lo; a < hi; a++ {
			totW += g.ArcWeight(a)
			if member[g.ArcTarget(a)] == member[u] {
				inW += g.ArcWeight(a)
			}
		}
	}
	observed := 1 - inW/totW
	if math.Abs(observed-mu) > 0.12 {
		t.Errorf("observed mixing %.3f, want ≈ %.2f", observed, mu)
	}
}

func TestLFRCommunitySizesRespectBounds(t *testing.T) {
	cfg := DefaultLFR(1200, 0.2, 5)
	_, member, err := LFR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := member.Sizes()
	var vals []int
	for _, s := range sizes {
		vals = append(vals, s)
	}
	sort.Ints(vals)
	if vals[0] < 2 {
		t.Errorf("smallest community has %d members", vals[0])
	}
	if len(vals) < 3 {
		t.Errorf("only %d communities planted", len(vals))
	}
}

func TestLFRValidation(t *testing.T) {
	bad := DefaultLFR(100, 0.2, 1)
	bad.Mu = 1.0
	if _, _, err := LFR(bad); err == nil {
		t.Error("expected error for mu = 1")
	}
	bad = DefaultLFR(100, 0.2, 1)
	bad.MinDegree = 0
	if _, _, err := LFR(bad); err == nil {
		t.Error("expected error for MinDegree = 0")
	}
	bad = DefaultLFR(100, 0.2, 1)
	bad.MaxComm = bad.MinComm - 1
	if _, _, err := LFR(bad); err == nil {
		t.Error("expected error for inverted community bounds")
	}
}

func TestLFRDeterministic(t *testing.T) {
	g1, m1, err := LFR(DefaultLFR(500, 0.25, 77))
	if err != nil {
		t.Fatal(err)
	}
	g2, m2, err := LFR(DefaultLFR(500, 0.25, 77))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumArcs() != g2.NumArcs() {
		t.Error("LFR graph not deterministic")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Error("LFR membership not deterministic")
			break
		}
	}
}

func TestSetSkew(t *testing.T) {
	cfg := Graph500RMAT(8, 1)
	if err := cfg.SetSkew(0.57); err != nil {
		t.Fatal(err)
	}
	// skew = 0.57 must reproduce the Graph500 quadrants exactly (up to the
	// integer-ratio split of the remaining mass).
	if math.Abs(cfg.A-0.57) > 1e-12 || math.Abs(cfg.B-0.19) > 1e-12 ||
		math.Abs(cfg.C-0.19) > 1e-12 || math.Abs(cfg.D-0.05) > 1e-12 {
		t.Fatalf("skew=0.57 gave %+v, want Graph500 quadrants", cfg)
	}
	if err := cfg.SetSkew(0.8); err != nil {
		t.Fatal(err)
	}
	if s := cfg.A + cfg.B + cfg.C + cfg.D; math.Abs(s-1) > 1e-12 {
		t.Fatalf("quadrants sum to %g, want 1", s)
	}
	for _, bad := range []float64{0, 1, -0.3, 1.5} {
		if err := cfg.SetSkew(bad); err == nil {
			t.Errorf("SetSkew(%g) accepted", bad)
		}
	}
}
