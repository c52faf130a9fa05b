package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// dictEdges generates messy edges (duplicates, self-loops) whose weights
// come from a small set, so the v2 writer keeps its dictionary encoding.
func dictEdges(rng *rand.Rand, n, m int) []Edge {
	weights := []float64{1, 2, 0.5}
	edges := make([]Edge, m)
	for i := range edges {
		e := Edge{U: rng.Intn(n), V: rng.Intn(n), W: weights[rng.Intn(len(weights))]}
		if rng.Intn(8) == 0 {
			e.V = e.U
		}
		edges[i] = e
	}
	return edges
}

func v2Fixture(t *testing.T, n, m, shards int) (*Graph, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(3*n + m + shards)))
	g, err := FromEdges(n, dictEdges(rng, n, m))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryShardedV2(&buf, g, shards); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

func TestShardedV2RoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, m, shards int }{
		{1, 0, 1}, {10, 20, 1}, {100, 800, 4}, {500, 5000, 7}, {64, 100, 64},
	} {
		g, enc := v2Fixture(t, tc.n, tc.m, tc.shards)
		if got := binary.LittleEndian.Uint32(enc); got != shardedMagicV2 {
			t.Fatalf("n=%d: magic %#x, want v2 %#x", tc.n, got, shardedMagicV2)
		}
		for _, w := range ingestWorkerCounts {
			g2, err := readSharded(enc, w)
			if err != nil {
				t.Fatalf("n=%d shards=%d workers=%d: %v", tc.n, tc.shards, w, err)
			}
			if diff := graphsIdentical(g, g2); diff != "" {
				t.Fatalf("n=%d shards=%d workers=%d: %s", tc.n, tc.shards, w, diff)
			}
		}
	}
}

// TestShardedV2Compresses pins the point of the format: a low-cardinality
// weight graph must encode materially smaller than v1 (the f64 weight is
// ~8 of v1's ~10 bytes/arc).
func TestShardedV2Compresses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := FromEdges(2000, dictEdges(rng, 2000, 20000))
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := writeSharded(&v1, g, 8, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryShardedV2(&v2, g, 8); err != nil {
		t.Fatal(err)
	}
	if v2.Len()*2 >= v1.Len() {
		t.Fatalf("v2 %d bytes vs v1 %d: expected at least 2x smaller", v2.Len(), v1.Len())
	}
}

// TestShardedV2FallsBackToV1 checks that a graph with more than 255
// distinct weights is silently written in the v1 format, which every
// reader accepts by magic.
func TestShardedV2FallsBackToV1(t *testing.T) {
	edges := make([]Edge, 400)
	for i := range edges {
		edges[i] = Edge{U: i, V: (i + 1) % 500, W: 1 + float64(i)/512}
	}
	g, err := FromEdges(500, edges)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryShardedV2(&buf, g, 4); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()); got != shardedMagic {
		t.Fatalf("magic %#x, want v1 fallback %#x", got, shardedMagic)
	}
	g2, err := readSharded(buf.Bytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if diff := graphsIdentical(g, g2); diff != "" {
		t.Fatal(diff)
	}
}

// TestWindowsMatchGraph decodes every shard window of v1 and v2 encodings
// and compares each vertex's arcs against the source graph.
func TestWindowsMatchGraph(t *testing.T) {
	for _, ver := range []int{1, 2} {
		var g *Graph
		var enc []byte
		if ver == 1 {
			g, enc = shardedFixture(t, 300, 4000, 8)
		} else {
			g, enc = v2Fixture(t, 300, 4000, 8)
		}
		s, err := OpenSharded(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			t.Fatal(err)
		}
		if s.ver != ver {
			t.Fatalf("version %d, want %d", s.ver, ver)
		}
		covered := 0
		for i := 0; i < s.NumShards(); i++ {
			w, err := s.ReadWindow(i)
			if err != nil {
				t.Fatalf("v%d shard %d: %v", ver, i, err)
			}
			lo, hi := s.ShardRange(i)
			if w.Lo != lo || w.Hi != hi {
				t.Fatalf("v%d shard %d: window [%d,%d), want [%d,%d)", ver, i, w.Lo, w.Hi, lo, hi)
			}
			for u := lo; u < hi; u++ {
				wantT, wantW := g.Neighbors(u)
				gotT, gotW := w.Arcs(u)
				if len(gotT) != len(wantT) {
					t.Fatalf("v%d vertex %d: %d arcs, want %d", ver, u, len(gotT), len(wantT))
				}
				for k := range wantT {
					if gotT[k] != wantT[k] || gotW[k] != wantW[k] {
						t.Fatalf("v%d vertex %d arc %d: (%d,%v) want (%d,%v)",
							ver, u, k, gotT[k], gotW[k], wantT[k], wantW[k])
					}
				}
				covered++
			}
		}
		if covered != g.NumVertices() {
			t.Fatalf("v%d: windows covered %d of %d vertices", ver, covered, g.NumVertices())
		}
		for _, i := range []int{-1, s.NumShards()} {
			if _, err := s.ReadWindow(i); err == nil {
				t.Errorf("v%d: window %d of %d: expected error", ver, i, s.NumShards())
			}
		}
	}
}

// TestShardedWriterMatchesInRAM replays the in-RAM v2 writer's exact shard
// boundaries through the streaming ShardedWriter and requires the output
// files to be byte-identical — the streaming generate path therefore
// produces the same artifact a load-then-write pipeline would.
func TestShardedWriterMatchesInRAM(t *testing.T) {
	g, enc := v2Fixture(t, 300, 4000, 6)
	s, err := OpenSharded(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	dict, _ := weightDict(g.weights)
	path := filepath.Join(t.TempDir(), "stream.sbin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewShardedWriter(f, g.NumVertices(), s.NumShards(), dict)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumShards(); i++ {
		w, err := s.ReadWindow(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.AppendShard(w.Hi, w.Offsets, w.Targets, w.Weights); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	if sw.Arcs() != g.NumArcs() {
		t.Fatalf("writer arcs %d, want %d", sw.Arcs(), g.NumArcs())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, enc) {
		t.Fatalf("streaming writer output differs from in-RAM writer (%d vs %d bytes)", len(got), len(enc))
	}
}

// TestShardedWriterNilWeights checks the unit-weight shortcut: weights ==
// nil encodes every arc as dictionary index 0, identical to passing the
// explicit weights.
func TestShardedWriterNilWeights(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 2, V: 2, W: 1}}
	g, err := FromEdges(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteBinaryShardedV2(&want, g, 2); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSharded(bytes.NewReader(want.Bytes()), int64(want.Len()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unit.sbin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sw, err := NewShardedWriter(f, 4, s.NumShards(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumShards(); i++ {
		w, err := s.ReadWindow(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.AppendShard(w.Hi, w.Offsets, w.Targets, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("nil-weight streaming output differs from explicit-weight in-RAM output")
	}
}

func TestShardedWriterErrors(t *testing.T) {
	tmp := func() *os.File {
		f, err := os.Create(filepath.Join(t.TempDir(), "w.sbin"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	if _, err := NewShardedWriter(tmp(), -1, 1, []float64{1}); err == nil {
		t.Error("negative n: expected error")
	}
	if _, err := NewShardedWriter(tmp(), 4, 0, []float64{1}); err == nil {
		t.Error("zero shards: expected error")
	}
	if _, err := NewShardedWriter(tmp(), 4, 1, nil); err == nil {
		t.Error("empty dictionary: expected error")
	}
	if _, err := NewShardedWriter(tmp(), 4, 1, []float64{1, 1}); err == nil {
		t.Error("duplicate dictionary entries: expected error")
	}

	sw, err := NewShardedWriter(tmp(), 4, 2, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendShard(5, []int64{0, 0, 0, 0, 0, 0}, nil, nil); err == nil {
		t.Error("hi beyond n: expected error")
	}
	if err := sw.AppendShard(2, []int64{0, 1, 2}, []int32{1, 0}, []float64{2, 2}); err == nil {
		t.Error("weight outside dictionary: expected error")
	}
	if err := sw.AppendShard(2, []int64{0, 1}, []int32{1}, nil); err == nil {
		t.Error("short offsets: expected error")
	}
	if err := sw.Finish(); err == nil {
		t.Error("finish before coverage: expected error")
	}
}

// TestOpenShardedFile exercises the mmap-backed open + zero-copy decode
// path end to end for both format versions.
func TestOpenShardedFile(t *testing.T) {
	for _, ver := range []int{1, 2} {
		var g *Graph
		var enc []byte
		if ver == 1 {
			g, enc = shardedFixture(t, 250, 3000, 5)
		} else {
			g, enc = v2Fixture(t, 250, 3000, 5)
		}
		path := filepath.Join(t.TempDir(), "g.sbin")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		s, closer, err := OpenShardedFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := s.ReadAll(3)
		if err != nil {
			t.Fatal(err)
		}
		if diff := graphsIdentical(g, g2); diff != "" {
			t.Fatalf("v%d mmap decode: %s", ver, diff)
		}
		// Windowed access over the mapping takes the Range zero-copy path.
		for i := 0; i < s.NumShards(); i++ {
			w, err := s.ReadWindow(i)
			if err != nil {
				t.Fatal(err)
			}
			for u := w.Lo; u < w.Hi; u++ {
				ts, _ := w.Arcs(u)
				if wantT, _ := g.Neighbors(u); !slices.Equal(ts, wantT) {
					t.Fatalf("v%d vertex %d: window arcs %v, want %v", ver, u, ts, wantT)
				}
			}
		}
		if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := OpenShardedFile(filepath.Join(t.TempDir(), "missing.sbin")); err == nil {
		t.Error("missing file: expected error")
	}
}

// TestShardedV2HostileInputs mutates a valid v2 encoding into hostile
// variants; every one must produce an error, never a panic or an
// input-disproportionate allocation.
func TestShardedV2HostileInputs(t *testing.T) {
	_, enc := v2Fixture(t, 100, 900, 4)
	le := binary.LittleEndian
	dictLen := int(le.Uint32(enc[28:]))
	indexOff := shardedHeaderLenV2 + 8*dictLen
	payloadOff := indexOff + 4*shardIndexEntryLen
	mutate := func(name string, f func(b []byte) []byte) {
		t.Helper()
		b := f(append([]byte(nil), enc...))
		if g, err := readSharded(b, 2); err == nil {
			t.Errorf("%s: expected error, got graph with %d vertices", name, g.NumVertices())
		}
	}
	mutate("nonzero flags", func(b []byte) []byte { le.PutUint32(b[24:], 0xbeef); return b })
	mutate("zero dictLen", func(b []byte) []byte { le.PutUint32(b[28:], 0); return b })
	mutate("huge dictLen", func(b []byte) []byte { le.PutUint32(b[28:], 1<<20); return b })
	mutate("dictLen beyond cap", func(b []byte) []byte { le.PutUint32(b[28:], 256); return b })
	mutate("truncated dict", func(b []byte) []byte { return b[:shardedHeaderLenV2+3] })
	mutate("truncated index", func(b []byte) []byte { return b[:indexOff+5] })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("huge arcs", func(b []byte) []byte { le.PutUint64(b[12:], 1<<60); return b })
	mutate("vhi not monotone", func(b []byte) []byte { le.PutUint64(b[indexOff:], 1<<40); return b })
	mutate("overlapping shard index", func(b []byte) []byte {
		// Shrink shard 0's upper bound below shard 1's range start while
		// leaving lengths alone: coverage and arc sums no longer line up.
		le.PutUint64(b[indexOff:], 0)
		return b
	})
	mutate("corrupt payload", func(b []byte) []byte { b[payloadOff+1] ^= 0xff; return b })
	mutate("truncated window", func(b []byte) []byte {
		// Cut the last payload byte but patch the final shard's payloadLen
		// so the index still sums: the shard decode must hit the reader's
		// error path, not run past the buffer.
		last := indexOff + 3*shardIndexEntryLen + 8
		cur := le.Uint64(b[last:])
		le.PutUint64(b[last:], cur-1)
		return b[:len(b)-1]
	})
}
