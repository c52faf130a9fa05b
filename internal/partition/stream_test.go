package partition

import (
	"bytes"
	"encoding/binary"
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
	golden, err := graph.ReadEdgeList(f, 1)
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
// × both partitionings × worker counts × shard counts × both shard format
// versions, including the float bit patterns of every weight and 2m. The
// one sharded writer picks the version from the weights, so the v1 files
// come from the R-MAT graph with a different weight on every edge.
func TestStreamingBuildMatchesInRAM(t *testing.T) {
	gs := streamGraphs(t)
	edges := gs["rmat12"].Edges()
	for i := range edges {
		edges[i].W = 1 + float64(i)/4096
	}
	weighted, err := graph.FromEdges(gs["rmat12"].NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	gs["rmat12-weighted"] = weighted
	for name, g := range gs {
		ver := 2
		if g == weighted {
			ver = 1
		}
		for _, shards := range []int{1, 7, 32} {
			var buf bytes.Buffer
			if err := graph.WriteBinaryShardedV2(&buf, g, shards); err != nil {
				t.Fatal(err)
			}
			// The magic's last byte is 0xA1 + the version.
			if got := int(binary.LittleEndian.Uint32(buf.Bytes())) - 0x477250A1; got != ver {
				t.Fatalf("%s: the writer chose format v%d, this row is meant to cover v%d", name, got, ver)
			}
			s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []Kind{Delegate, OneD} {
				for _, p := range []int{1, 2, 4} {
					for _, workers := range []int{1, 4} {
						opt := Options{P: p, Kind: kind, Workers: workers}
						want, err := Build(g, opt)
						if err != nil {
							t.Fatal(err)
						}
						got, err := BuildStreaming(s, opt)
						if err != nil {
							t.Fatalf("%s v%d shards=%d %v p=%d w=%d: %v",
								name, ver, shards, kind, p, workers, err)
						}
						if diff := layoutsIdentical(want, got); diff != "" {
							t.Fatalf("%s v%d shards=%d %v p=%d w=%d: streaming diverged: %s",
								name, ver, shards, kind, p, workers, diff)
						}
					}
				}
			}
		}
	}
}

// TestStreamingBuildWorkerDeterminism pins the streaming path's own
// worker-count contract, independent of the in-RAM comparison.
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
		base, err := BuildStreaming(s, Options{P: 4, Kind: kind, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range buildWorkerCounts[1:] {
			l, err := BuildStreaming(s, Options{P: 4, Kind: kind, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if diff := layoutsIdentical(base, l); diff != "" {
				t.Fatalf("%v workers=%d: %s", kind, w, diff)
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
