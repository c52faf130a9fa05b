package quality

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestIdenticalPartitions(t *testing.T) {
	a := graph.Membership{0, 0, 1, 1, 2, 2}
	s, err := Compare(a, slices.Clone(a))
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.NMI, 1) || !almost(s.FMeasure, 1) || !almost(s.RI, 1) ||
		!almost(s.ARI, 1) || !almost(s.JI, 1) {
		t.Errorf("identical partitions: %+v, want all 1", s)
	}
	if !almost(s.NVD, 0) {
		t.Errorf("NVD = %g, want 0", s.NVD)
	}
}

func TestRelabeledPartitionsAreIdentical(t *testing.T) {
	a := graph.Membership{0, 0, 1, 1, 2, 2}
	b := graph.Membership{9, 9, 4, 4, 7, 7}
	s, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.NMI, 1) || !almost(s.ARI, 1) || !almost(s.NVD, 0) {
		t.Errorf("relabeled partitions: %+v", s)
	}
}

func TestLengthMismatch(t *testing.T) {
	if _, err := Compare(graph.Membership{0}, graph.Membership{0, 1}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Compare(graph.Membership{}, graph.Membership{}); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestKnownRandIndex(t *testing.T) {
	// Classic example: A = {0,0,0,1,1,1}, B = {0,0,1,1,2,2}.
	a := graph.Membership{0, 0, 0, 1, 1, 1}
	b := graph.Membership{0, 0, 1, 1, 2, 2}
	s, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// pairs: n=6, C(6,2)=15.
	// together in both: pairs (0,1) and (4,5) and (2? no) → a=2
	// A-pairs: 2*C(3,2)=6; B-pairs: 3*C(2,2*)=3 → b=6-2=4, c=3-2=1, d=15-6-3+2=8
	// RI = (2+8)/15 = 2/3
	if !almost(s.RI, 10.0/15.0) {
		t.Errorf("RI = %g, want %g", s.RI, 10.0/15.0)
	}
	// JI = a/(a+b+c) = 2/7
	if !almost(s.JI, 2.0/7.0) {
		t.Errorf("JI = %g, want %g", s.JI, 2.0/7.0)
	}
	// ARI = (a - E)/(max - E); E = 6*3/15 = 1.2; max = 4.5
	wantARI := (2.0 - 1.2) / (4.5 - 1.2)
	if !almost(s.ARI, wantARI) {
		t.Errorf("ARI = %g, want %g", s.ARI, wantARI)
	}
}

func TestARIZeroForIndependentExpected(t *testing.T) {
	// Random labelings should give ARI ≈ 0 (can be slightly negative).
	rng := rand.New(rand.NewSource(5))
	n := 5000
	a := make(graph.Membership, n)
	b := make(graph.Membership, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Intn(8)
		b[i] = rng.Intn(8)
	}
	s, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.ARI) > 0.02 {
		t.Errorf("ARI = %g for independent labelings, want ≈ 0", s.ARI)
	}
	if s.NMI > 0.05 {
		t.Errorf("NMI = %g for independent labelings, want ≈ 0", s.NMI)
	}
}

func TestTrivialPartitions(t *testing.T) {
	// Both single-cluster: all measures should report perfect agreement.
	a := graph.Membership{3, 3, 3}
	s, err := Compare(a, slices.Clone(a))
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.NMI, 1) || !almost(s.ARI, 1) || !almost(s.RI, 1) || !almost(s.JI, 1) {
		t.Errorf("trivial identical: %+v", s)
	}
	// All-singletons vs all-one-cluster: maximal disagreement in pair terms.
	n := 6
	single := make(graph.Membership, n)
	one := make(graph.Membership, n)
	for i := range single {
		single[i] = i
	}
	s, err = Compare(single, one)
	if err != nil {
		t.Fatal(err)
	}
	if s.JI != 0 {
		t.Errorf("JI = %g, want 0", s.JI)
	}
	if s.NMI != 0 {
		t.Errorf("NMI = %g, want 0", s.NMI)
	}
}

func TestSubsplitPartitionFMeasure(t *testing.T) {
	// Truth has one community of 4; detected splits it 2+2.
	truth := graph.Membership{0, 0, 0, 0}
	det := graph.Membership{0, 0, 1, 1}
	s, err := Compare(det, truth)
	if err != nil {
		t.Fatal(err)
	}
	// From the truth side: best F1 of the size-4 community vs a size-2
	// detected piece = 2·(1·0.5)/(1+0.5) = 2/3. From the detected side:
	// each piece matches truth fully with F1 = 2/3. Symmetric avg = 2/3.
	if !almost(s.FMeasure, 2.0/3.0) {
		t.Errorf("FMeasure = %g, want 2/3", s.FMeasure)
	}
	// NVD: Σ_a max = 2+2 (detected side), Σ_b max = 2 (truth side picks
	// larger overlap 2). NVD = 1 − (4+2)/(2·4) = 0.25.
	if !almost(s.NVD, 0.25) {
		t.Errorf("NVD = %g, want 0.25", s.NVD)
	}
}

func TestSymmetry(t *testing.T) {
	// NMI, RI, ARI, JI, NVD and our symmetric F-measure are all symmetric.
	rng := rand.New(rand.NewSource(11))
	n := 300
	a := make(graph.Membership, n)
	b := make(graph.Membership, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Intn(5)
		b[i] = rng.Intn(7)
	}
	s1, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compare(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s1.NMI, s2.NMI) || !almost(s1.RI, s2.RI) || !almost(s1.ARI, s2.ARI) ||
		!almost(s1.JI, s2.JI) || !almost(s1.NVD, s2.NVD) || !almost(s1.FMeasure, s2.FMeasure) {
		t.Errorf("asymmetric measures: %+v vs %+v", s1, s2)
	}
}

func TestQuickBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		a := make(graph.Membership, n)
		b := make(graph.Membership, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Intn(1 + rng.Intn(10))
			b[i] = rng.Intn(1 + rng.Intn(10))
		}
		s, err := Compare(a, b)
		if err != nil {
			return false
		}
		inUnit := func(v float64) bool { return v >= 0 && v <= 1 }
		return inUnit(s.NMI) && inUnit(s.FMeasure) && inUnit(s.NVD) &&
			inUnit(s.RI) && inUnit(s.JI) && s.ARI >= -1 && s.ARI <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPerfectOnPermutedLabels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		k := 2 + rng.Intn(6)
		a := make(graph.Membership, n)
		for i := range a {
			a[i] = rng.Intn(k)
		}
		perm := rng.Perm(k + 3)
		b := make(graph.Membership, n)
		for i := range b {
			b[i] = perm[a[i]]
		}
		s, err := Compare(a, b)
		if err != nil {
			return false
		}
		return almost(s.NMI, 1) && almost(s.ARI, 1) && almost(s.NVD, 0) && almost(s.JI, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVMeasureIdentical(t *testing.T) {
	a := graph.Membership{0, 0, 1, 1, 2}
	s, err := VMeasure(a, slices.Clone(a))
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.Homogeneity, 1) || !almost(s.Completeness, 1) || !almost(s.V, 1) {
		t.Errorf("identical: %+v", s)
	}
}

func TestVMeasureSubsplit(t *testing.T) {
	// Detected splits one truth class in two: perfectly homogeneous,
	// incompletely complete.
	truth := graph.Membership{0, 0, 0, 0, 1, 1}
	det := graph.Membership{0, 0, 1, 1, 2, 2}
	s, err := VMeasure(det, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.Homogeneity, 1) {
		t.Errorf("Homogeneity = %g, want 1", s.Homogeneity)
	}
	if s.Completeness >= 1 {
		t.Errorf("Completeness = %g, want < 1", s.Completeness)
	}
	if s.V <= 0 || s.V >= 1 {
		t.Errorf("V = %g", s.V)
	}
	// The mirror case flips the roles.
	s2, err := VMeasure(truth, det)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s2.Completeness, 1) || s2.Homogeneity >= 1 {
		t.Errorf("mirror: %+v", s2)
	}
	if !almost(s.V, s2.V) {
		t.Errorf("V not symmetric: %g vs %g", s.V, s2.V)
	}
}

func TestVMeasureBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		a := make(graph.Membership, n)
		b := make(graph.Membership, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Intn(6)
			b[i] = rng.Intn(6)
		}
		s, err := VMeasure(a, b)
		if err != nil {
			return false
		}
		in01 := func(v float64) bool { return v >= -1e-9 && v <= 1+1e-9 }
		return in01(s.Homogeneity) && in01(s.Completeness) && in01(s.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
