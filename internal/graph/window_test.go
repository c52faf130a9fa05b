package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestShardedV2RoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, m, shards int }{
		{1, 0, 1}, {10, 20, 1}, {100, 800, 4}, {500, 5000, 7}, {64, 100, 64},
	} {
		g, enc := shardedFixture(t, tc.n, tc.m, tc.shards)
		if got := binary.LittleEndian.Uint32(enc); got != shardedMagicV2 {
			t.Fatalf("n=%d: magic %#x, want v2 %#x", tc.n, got, shardedMagicV2)
		}
		for _, procs := range ingestProcs {
			setProcs(t, procs)
			g2, err := readSharded(enc)
			if err != nil {
				t.Fatalf("n=%d shards=%d procs=%d: %v", tc.n, tc.shards, procs, err)
			}
			if diff := graphsIdentical(g, g2); diff != "" {
				t.Fatalf("n=%d shards=%d procs=%d: %s", tc.n, tc.shards, procs, diff)
			}
		}
	}
}

// TestShardedV2Compresses pins the point of the format: a few-weight graph
// costs under half the 9 bytes per arc that a one-byte target and a raw
// f64 weight would take.
func TestShardedV2Compresses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := FromEdges(2000, dictEdges(rng, 2000, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if size := len(encodeSharded(t, g, 8)); 2*int64(size) >= 9*g.NumArcs() {
		t.Fatalf("%d bytes for %d arcs: expected under 4.5 bytes per arc", size, g.NumArcs())
	}
}

// TestShardedV2RefusesManyWeights checks the dictionary cap: a graph with
// 256 distinct weights is refused before any byte is written, and one with
// 255 is written.
func TestShardedV2RefusesManyWeights(t *testing.T) {
	for _, m := range []int{maxWeightDict, maxWeightDict + 1} {
		g, err := FromEdges(m+1, wideEdges(m))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = WriteBinaryShardedV2(&buf, g, 4)
		if m > maxWeightDict && (err == nil || buf.Len() != 0) {
			t.Fatalf("%d weights: error %v after %d bytes, want an error and nothing written", m, err, buf.Len())
		}
		if m <= maxWeightDict && err != nil {
			t.Fatalf("%d weights: %v", m, err)
		}
	}
}

// windowFixtures are the graphs the windowed-access tests decode: a messy
// few-weight graph and a path with a full 255-entry dictionary.
func windowFixtures(t *testing.T, n, m, shards int) map[string]*Graph {
	t.Helper()
	few, _ := shardedFixture(t, n, m, shards)
	wide, err := FromEdges(maxWeightDict+1, wideEdges(maxWeightDict))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"few": few, "wide": wide}
}

// TestWindowsMatchGraph decodes every shard window of the encodings and
// compares each vertex's arcs against the source graph.
func TestWindowsMatchGraph(t *testing.T) {
	for name, g := range windowFixtures(t, 300, 4000, 8) {
		enc := encodeSharded(t, g, 8)
		s, err := OpenSharded(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for i := 0; i < s.NumShards(); i++ {
			w, err := s.ReadWindow(i)
			if err != nil {
				t.Fatalf("%s shard %d: %v", name, i, err)
			}
			lo, hi := s.ShardRange(i)
			if w.Lo != lo || w.Hi != hi {
				t.Fatalf("%s shard %d: window [%d,%d), want [%d,%d)", name, i, w.Lo, w.Hi, lo, hi)
			}
			for u := lo; u < hi; u++ {
				wantT, wantW := g.Neighbors(u)
				gotT, gotW := w.Arcs(u)
				if len(gotT) != len(wantT) {
					t.Fatalf("%s vertex %d: %d arcs, want %d", name, u, len(gotT), len(wantT))
				}
				for k := range wantT {
					if gotT[k] != wantT[k] || gotW[k] != wantW[k] {
						t.Fatalf("%s vertex %d arc %d: (%d,%v) want (%d,%v)",
							name, u, k, gotT[k], gotW[k], wantT[k], wantW[k])
					}
				}
				covered++
			}
		}
		if covered != g.NumVertices() {
			t.Fatalf("%s: windows covered %d of %d vertices", name, covered, g.NumVertices())
		}
		for _, i := range []int{-1, s.NumShards()} {
			if _, err := s.ReadWindow(i); err == nil {
				t.Errorf("%s: window %d of %d: expected error", name, i, s.NumShards())
			}
		}
	}
}

// TestShardedWriterMatchesInRAM replays the in-RAM writer's exact shard
// boundaries through the streaming ShardedWriter and requires the output
// files to be byte-identical — the streaming generate path therefore
// produces the same artifact a load-then-write pipeline would.
func TestShardedWriterMatchesInRAM(t *testing.T) {
	g, enc := shardedFixture(t, 300, 4000, 6)
	s, err := OpenSharded(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	dict, _, err := weightDict(g.weights)
	if err != nil {
		t.Fatal(err)
	}
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

// TestOpenShardedFile exercises the file open + positioned-read decode
// path end to end.
func TestOpenShardedFile(t *testing.T) {
	for name, g := range windowFixtures(t, 250, 3000, 5) {
		path := filepath.Join(t.TempDir(), "g.sbin")
		if err := os.WriteFile(path, encodeSharded(t, g, 5), 0o644); err != nil {
			t.Fatal(err)
		}
		s, closer, err := OpenShardedFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := s.ReadAll(0)
		if err != nil {
			t.Fatal(err)
		}
		if diff := graphsIdentical(g, g2); diff != "" {
			t.Fatalf("%s file decode: %s", name, diff)
		}
		// Windowed access reads each shard's payload from the file.
		for i := 0; i < s.NumShards(); i++ {
			w, err := s.ReadWindow(i)
			if err != nil {
				t.Fatal(err)
			}
			for u := w.Lo; u < w.Hi; u++ {
				ts, _ := w.Arcs(u)
				if wantT, _ := g.Neighbors(u); !slices.Equal(ts, wantT) {
					t.Fatalf("%s vertex %d: window arcs %v, want %v", name, u, ts, wantT)
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

// TestOpenShardedFileHostile covers files that change or were never graphs:
// a file truncated under an open reader must fail every read the cut
// reaches with io.ErrUnexpectedEOF (not fault the process), and an empty
// file or a directory must fail the open.
func TestOpenShardedFileHostile(t *testing.T) {
	g, enc := shardedFixture(t, 400, 4000, 6)
	path := filepath.Join(t.TempDir(), "g.sbin")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	s, closer, err := OpenShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if err := os.Truncate(path, int64(len(enc)/2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAll(0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated ReadAll: err %v, want io.ErrUnexpectedEOF", err)
	}
	// The cut lies inside the payloads, so the last shard is always short;
	// shards wholly before the cut still decode.
	short := 0
	for i := 0; i < s.NumShards(); i++ {
		w, err := s.ReadWindow(i)
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("truncated ReadWindow(%d): err %v, want io.ErrUnexpectedEOF", i, err)
			}
			short++
			continue
		}
		for u := w.Lo; u < w.Hi; u++ {
			ts, _ := w.Arcs(u)
			if wantT, _ := g.Neighbors(u); !slices.Equal(ts, wantT) {
				t.Fatalf("truncated file, intact shard %d vertex %d: arcs differ", i, u)
			}
		}
	}
	if short == 0 {
		t.Error("truncated file: every ReadWindow succeeded")
	}

	empty := filepath.Join(t.TempDir(), "empty.sbin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShardedFile(empty); err == nil {
		t.Error("empty file: expected error")
	}
	if _, _, err := OpenShardedFile(t.TempDir()); err == nil {
		t.Error("directory: expected error")
	}
}

// TestShardedV2HostileInputs mutates the dictionary and the payloads of a
// valid encoding into hostile variants; every one must produce an error,
// never a panic or an input-disproportionate allocation.
func TestShardedV2HostileInputs(t *testing.T) {
	_, enc := shardedFixture(t, 100, 900, 4)
	le := binary.LittleEndian
	dictLen := int(le.Uint32(enc[28:]))
	indexOff := shardedHeaderLen + 8*dictLen
	payloadOff := indexOff + 4*shardIndexEntryLen
	mutate := func(name string, f func(b []byte) []byte) {
		t.Helper()
		b := f(append([]byte(nil), enc...))
		if g, err := readSharded(b); err == nil {
			t.Errorf("%s: expected error, got graph with %d vertices", name, g.NumVertices())
		}
	}
	mutate("nonzero flags", func(b []byte) []byte { le.PutUint32(b[24:], 0xbeef); return b })
	mutate("zero dictLen", func(b []byte) []byte { le.PutUint32(b[28:], 0); return b })
	mutate("huge dictLen", func(b []byte) []byte { le.PutUint32(b[28:], 1<<20); return b })
	mutate("dictLen beyond cap", func(b []byte) []byte { le.PutUint32(b[28:], 256); return b })
	mutate("truncated dict", func(b []byte) []byte { return b[:shardedHeaderLen+3] })
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
