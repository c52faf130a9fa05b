package gen

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// TestStreamRMATMatchesInRAM pins the generator acceptance claim: the
// bounded-memory path writes the exact graph RMAT builds in RAM — compared
// byte-for-byte through the one-shard sharded encoding, across scales, edge
// factors, seeds, and shard counts (including shards ≫ buckets' vertex
// ranges and a skewed quadrant mix).
func TestStreamRMATMatchesInRAM(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		scale, ef int
		seed      int64
		skew      float64
		shards    int
	}{
		{scale: 6, ef: 4, seed: 1, shards: 1},
		{scale: 8, ef: 8, seed: 7, shards: 5},
		{scale: 10, ef: 8, seed: 42, shards: 32},
		{scale: 10, ef: 4, seed: 3, skew: 0.7, shards: 9},
		{scale: 4, ef: 2, seed: 11, shards: 64}, // shards > n clamp
		{scale: 0, ef: 4, seed: 5, shards: 2},   // degenerate: 1 vertex, no arcs
	} {
		cfg := Graph500RMAT(tc.scale, tc.seed)
		cfg.EdgeFactor = tc.ef
		if tc.skew != 0 {
			if err := cfg.SetSkew(tc.skew); err != nil {
				t.Fatal(err)
			}
		}
		want, err := RMAT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "g.sbin")
		sg, err := StreamRMAT(cfg, path, tc.shards)
		if err != nil {
			t.Fatalf("scale=%d shards=%d: %v", tc.scale, tc.shards, err)
		}
		if sg.Vertices != want.NumVertices() || sg.Arcs != want.NumArcs() {
			t.Fatalf("scale=%d: streamed %d vertices %d arcs, want %d/%d",
				tc.scale, sg.Vertices, sg.Arcs, want.NumVertices(), want.NumArcs())
		}
		if head, err := os.ReadFile(path); err != nil || binary.LittleEndian.Uint32(head) != 0x477250A3 {
			t.Fatalf("scale=%d: streamed file does not start with the v2 magic (read error %v)", tc.scale, err)
		}
		s, closer, err := graph.OpenShardedFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadAll(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
		var wb, gb bytes.Buffer
		if err := graph.WriteBinaryShardedV2(&wb, want, 1); err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteBinaryShardedV2(&gb, got, 1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Fatalf("scale=%d ef=%d seed=%d shards=%d: streamed graph differs from in-RAM RMAT",
				tc.scale, tc.ef, tc.seed, tc.shards)
		}
	}
}

// TestStreamRMATDeterministic re-runs the generator and requires the
// output file to be byte-identical — shard grouping is a pure function of
// the generated data.
func TestStreamRMATDeterministic(t *testing.T) {
	dir := t.TempDir()
	cfg := Graph500RMAT(9, 13)
	cfg.EdgeFactor = 6
	p1 := filepath.Join(dir, "a.sbin")
	p2 := filepath.Join(dir, "b.sbin")
	if _, err := StreamRMAT(cfg, p1, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamRMAT(cfg, p2, 7); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two StreamRMAT runs produced different bytes")
	}
	// The bucket temp dir must be gone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("leftover temp dir %s", e.Name())
		}
	}
}

func TestStreamRMATErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := Graph500RMAT(4, 1)
	cfg.A = 0.9 // probabilities no longer sum to 1
	if _, err := StreamRMAT(cfg, filepath.Join(dir, "x.sbin"), 2); err == nil {
		t.Error("bad probabilities: expected error")
	}
	bad := Graph500RMAT(40, 1)
	if _, err := StreamRMAT(bad, filepath.Join(dir, "x.sbin"), 2); err == nil {
		t.Error("scale out of range: expected error")
	}
	if _, err := StreamRMAT(Graph500RMAT(4, 1), filepath.Join(dir, "no/such/dir/x.sbin"), 2); err == nil {
		t.Error("unwritable path: expected error")
	}
}
