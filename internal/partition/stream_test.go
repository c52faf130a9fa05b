package partition

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// streamGraphs returns the bit-identity test corpus: the golden e2e
// fixture graph and an R-MAT instance (hub-heavy, duplicate-edge-summed
// weights), per the acceptance criteria.
func streamGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	f, err := os.Open("../core/testdata/golden/graph.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.Graph500RMAT(12, 6))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"golden": golden, "rmat12": rmat}
}

// TestStreamingBuildMatchesInRAM is the tentpole acceptance test: the
// streaming two-pass Build over a sharded file must produce a Layout
// bit-identical to the in-RAM Build of the decoded graph — golden + R-MAT
// × both partitionings × GOMAXPROCS × shard counts, including the float
// bit patterns of every weight and 2m. The weighted R-MAT row spreads its
// edges over 200 fractional weights, most of the dictionary's 255.
func TestStreamingBuildMatchesInRAM(t *testing.T) {
	gs := streamGraphs(t)
	edges := gs["rmat12"].Edges()
	for i := range edges {
		edges[i].W = 1 + float64(i%200)/256
	}
	weighted, err := graph.FromEdges(gs["rmat12"].NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	gs["rmat12-weighted"] = weighted
	for name, g := range gs {
		for _, shards := range []int{1, 7, 32} {
			var buf bytes.Buffer
			if err := graph.WriteBinaryShardedV2(&buf, g, shards); err != nil {
				t.Fatal(err)
			}
			s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []Kind{Delegate, OneD} {
				for _, p := range []int{1, 2, 4} {
					for _, procs := range []int{1, 4} {
						setProcs(t, procs)
						opt := Options{P: p, Kind: kind}
						want, err := Build(g, opt)
						if err != nil {
							t.Fatal(err)
						}
						got, err := BuildStreaming(s, opt)
						if err != nil {
							t.Fatalf("%s shards=%d %v p=%d procs=%d: %v",
								name, shards, kind, p, procs, err)
						}
						if diff := layoutsIdentical(want, got); diff != "" {
							t.Fatalf("%s shards=%d %v p=%d procs=%d: streaming diverged: %s",
								name, shards, kind, p, procs, diff)
						}
					}
				}
			}
		}
	}
}

// TestStreamingBuildWorkerDeterminism pins the streaming path's own
// GOMAXPROCS contract, independent of the in-RAM comparison.
func TestStreamingBuildWorkerDeterminism(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&buf, g, 9); err != nil {
		t.Fatal(err)
	}
	s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{Delegate, OneD} {
		setProcs(t, 1)
		base, err := BuildStreaming(s, Options{P: 4, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range buildProcs[1:] {
			setProcs(t, procs)
			l, err := BuildStreaming(s, Options{P: 4, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			if diff := layoutsIdentical(base, l); diff != "" {
				t.Fatalf("%v procs=%d: %s", kind, procs, diff)
			}
		}
	}
}

func TestStreamingBuildErrors(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&buf, g, 3); err != nil {
		t.Fatal(err)
	}
	s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStreaming(s, Options{P: 0}); err == nil {
		t.Error("P=0: expected error")
	}
	// A payload corrupted after OpenSharded's index validation must surface
	// as a decode error from the windowed passes, not a panic.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)-1] ^= 0xff
	sb, err := graph.OpenSharded(bytes.NewReader(bad), int64(len(bad)))
	if err == nil {
		if _, err := BuildStreaming(sb, Options{P: 2}); err == nil {
			t.Error("corrupt payload: expected error")
		}
	}
}

// TestBuildRejectsUnrepresentableWeights pins the quantise gate at both
// builder entry points: a weight or a 2m the fixed point cannot carry fails
// the build with ErrWeight instead of reaching the solver, where it would
// come out as a NaN or meaningless modularity.
func TestBuildRejectsUnrepresentableWeights(t *testing.T) {
	const big = 1 << 41 // two arcs of it fit a degree, four overflow 2m
	for _, tc := range []struct {
		name string
		w    []float64 // weights of the path 0-1-2
	}{
		{"nan", []float64{math.NaN(), 1}},
		{"nan-second", []float64{1, math.NaN()}},
		{"+inf", []float64{1, math.Inf(1)}},
		{"-inf", []float64{math.Inf(-1), 1}},
		{"negative", []float64{1, -1}},
		{"rounds-to-zero", []float64{1e-9, 1}},
		{"weight-past-limit", []float64{1e13, 1}},
		{"2m-past-limit", []float64{big, big}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: tc.w[0]}, {U: 1, V: 2, W: tc.w[1]}})
			if err != nil {
				t.Skipf("graph layer already refuses it: %v", err)
			}
			if _, err := Build(g, Options{P: 2}); !errors.Is(err, ErrWeight) {
				t.Errorf("Build: %v, want ErrWeight", err)
			}
			var buf bytes.Buffer
			if err := graph.WriteBinaryShardedV2(&buf, g, 2); err != nil {
				t.Fatal(err)
			}
			s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := BuildStreaming(s, Options{P: 2}); !errors.Is(err, ErrWeight) {
				t.Errorf("BuildStreaming: %v, want ErrWeight", err)
			}
		})
	}
	// The largest weight and the smallest nonzero one that round to a unit
	// are accepted.
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1 << 40}, {U: 1, V: 2, W: 0x1p-21}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, Options{P: 2}); err != nil {
		t.Errorf("representable weights: %v", err)
	}
}
