package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// readSharded opens an in-memory .sbin and decodes all of it, the road
// ReadFile takes through OpenShardedFile.
func readSharded(data []byte) (*Graph, error) {
	s, err := OpenSharded(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return s.ReadAll(0)
}

// dictEdges generates messy edges (duplicates, self-loops) whose weights
// come from a small set, so the summed weights stay few.
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

// shardedFixture builds a messy few-weight graph and its .sbin encoding.
func shardedFixture(t *testing.T, n, m, shards int) (*Graph, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(3*n + m + shards)))
	g, err := FromEdges(n, dictEdges(rng, n, m))
	if err != nil {
		t.Fatal(err)
	}
	return g, encodeSharded(t, g, shards)
}

// wideEdges is a path whose edges carry distinct weights 1 + i/256: with
// m = 255 the dictionary is exactly full.
func wideEdges(m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: i, V: i + 1, W: 1 + float64(i)/256}
	}
	return edges
}

func encodeSharded(t testing.TB, g *Graph, shards int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryShardedV2(&buf, g, shards); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	for _, procs := range ingestProcs {
		setProcs(t, procs)
		if !bytes.Equal(enc, encodeSharded(t, g, 5)) {
			t.Fatalf("procs=%d: sharded encoding differs from the first write", procs)
		}
	}
}

// TestShardedWeightBits checks that a NaN weight comes back with its bit
// pattern, also when it is not the graph's first weight and when two NaNs
// differ in payload: NaN ≠ NaN, so a dictionary keyed by value never finds
// one.
func TestShardedWeightBits(t *testing.T) {
	otherNaN := math.Float64frombits(0x7ff8000000000001)
	for name, edges := range map[string][]Edge{
		"nan-second": {{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: math.NaN()}},
		"two-nans":   {{U: 0, V: 1, W: math.NaN()}, {U: 1, V: 2, W: otherNaN}, {U: 2, V: 3, W: 2}},
	} {
		g, err := FromEdges(len(edges)+1, edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			g2, err := readSharded(encodeSharded(t, g, shards))
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if diff := graphsIdentical(g, g2); diff != "" {
				t.Fatalf("%s shards=%d: %s", name, shards, diff)
			}
		}
	}
}

// TestShardedHostileInputs mutates the fixed header and the index of a
// valid encoding into hostile variants; every one must produce an error
// (not a panic, not a huge allocation).
func TestShardedHostileInputs(t *testing.T) {
	_, enc := shardedFixture(t, 100, 900, 4)
	le := binary.LittleEndian
	indexOff := shardedHeaderLen + 8*int(le.Uint32(enc[28:]))
	mutate := func(name string, f func(b []byte) []byte) {
		t.Helper()
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
	mutate("vhi not monotone", func(b []byte) []byte { le.PutUint64(b[indexOff:], 1<<40); return b })
	mutate("huge payloadLen", func(b []byte) []byte { le.PutUint64(b[indexOff+8:], 1<<60); return b })
	mutate("huge arcCount", func(b []byte) []byte { le.PutUint64(b[indexOff+16:], 1<<60); return b })
	mutate("payload shifted", func(b []byte) []byte {
		// Grow shard 0's payloadLen by one: sums no longer match the input.
		cur := le.Uint64(b[indexOff+8:])
		le.PutUint64(b[indexOff+8:], cur+1)
		return b
	})
	mutate("arcCount off by one", func(b []byte) []byte {
		cur := le.Uint64(b[indexOff+16:])
		le.PutUint64(b[indexOff+16:], cur+1)
		return b
	})
	mutate("truncated header", func(b []byte) []byte { return b[:shardedHeaderLen-2] })
	mutate("truncated index", func(b []byte) []byte { return b[:indexOff+10] })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("corrupt payload target", func(b []byte) []byte {
		// Flip bits at the start of the first payload: the delta decode
		// must reject the out-of-order/range target.
		off := indexOff + 4*shardIndexEntryLen
		b[off+1] ^= 0xff
		return b
	})
}
