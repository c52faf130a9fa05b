package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// readSharded opens an in-memory .sbin of either version and decodes all
// of it, the road ReadFile takes through OpenShardedFile.
func readSharded(data []byte) (*Graph, error) {
	s, err := OpenSharded(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return s.ReadAll(0)
}

// shardedFixture encodes a messy graph as v1 (raw f64 weights), the format
// WriteBinaryShardedV2 falls back to by itself past 255 distinct weights;
// calling writeSharded directly gets it for small graphs too.
func shardedFixture(t *testing.T, n, m, shards int) (*Graph, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n + m + shards)))
	g, err := FromEdges(n, messyEdges(rng, n, m))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSharded(&buf, g, shards, nil); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

func TestShardedRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, m, shards int }{
		{1, 0, 1}, {10, 20, 1}, {100, 800, 4}, {500, 5000, 7}, {64, 100, 64},
		{50, 300, 200}, // more shards than vertices: clamped
		{0, 0, 1},      // no vertices: one shard with an empty payload
	} {
		g, enc := shardedFixture(t, tc.n, tc.m, tc.shards)
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

func TestShardedDeterministicEncoding(t *testing.T) {
	g, enc := shardedFixture(t, 300, 3000, 5)
	var buf bytes.Buffer
	if err := writeSharded(&buf, g, 5, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Error("sharded encoding is not deterministic across writes")
	}
}

func TestShardedMatchesFlat(t *testing.T) {
	g, enc := shardedFixture(t, 200, 2000, 6)
	var flat bytes.Buffer
	if err := writeBinary(&flat, g); err != nil {
		t.Fatal(err)
	}
	gf, err := ReadBinary(bytes.NewReader(flat.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gs, err := readSharded(enc)
	if err != nil {
		t.Fatal(err)
	}
	if diff := graphsIdentical(gf, gs); diff != "" {
		t.Fatalf("flat vs sharded decode: %s", diff)
	}
}

// TestShardedHostileInputs mutates a valid encoding into hostile variants;
// every one must produce an error (not a panic, not a huge allocation).
func TestShardedHostileInputs(t *testing.T) {
	_, enc := shardedFixture(t, 100, 900, 4)
	le := binary.LittleEndian
	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), enc...))
		if g, err := readSharded(b); err == nil {
			// A mutation may legitimately survive only if the graph still
			// validates; hostile header fields below never do.
			t.Errorf("%s: expected error, got graph with %d vertices", name, g.NumVertices())
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("huge n", func(b []byte) []byte { le.PutUint64(b[4:], 1<<60); return b })
	mutate("huge arcs", func(b []byte) []byte { le.PutUint64(b[12:], 1<<60); return b })
	mutate("zero shards", func(b []byte) []byte { le.PutUint32(b[20:], 0); return b })
	mutate("huge shards", func(b []byte) []byte { le.PutUint32(b[20:], 1<<31); return b })
	mutate("vhi not monotone", func(b []byte) []byte { le.PutUint64(b[shardedHeaderLen:], 1<<40); return b })
	mutate("huge payloadLen", func(b []byte) []byte { le.PutUint64(b[shardedHeaderLen+8:], 1<<60); return b })
	mutate("huge arcCount", func(b []byte) []byte { le.PutUint64(b[shardedHeaderLen+16:], 1<<60); return b })
	mutate("payload shifted", func(b []byte) []byte {
		// Grow shard 0's payloadLen by one: sums no longer match the input.
		cur := le.Uint64(b[shardedHeaderLen+8:])
		le.PutUint64(b[shardedHeaderLen+8:], cur+1)
		return b
	})
	mutate("arcCount off by one", func(b []byte) []byte {
		cur := le.Uint64(b[shardedHeaderLen+16:])
		le.PutUint64(b[shardedHeaderLen+16:], cur+1)
		return b
	})
	mutate("truncated header", func(b []byte) []byte { return b[:shardedHeaderLen-2] })
	mutate("truncated index", func(b []byte) []byte { return b[:shardedHeaderLen+10] })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("corrupt payload target", func(b []byte) []byte {
		// Flip bits at the start of the first payload: the delta decode
		// must reject the out-of-order/range target.
		off := shardedHeaderLen + 4*shardIndexEntryLen
		b[off+1] ^= 0xff
		return b
	})
}
