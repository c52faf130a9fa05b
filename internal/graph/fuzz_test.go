package graph

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/wire"
)

// seedFromTestdata adds the contents of a testdata file to the corpus, so
// the fuzzers start from realistic inputs rather than only synthetic ones.
func seedFromTestdata(f *testing.F, name string) {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(data))
}

// FuzzReadEdgeList exercises the text parser against arbitrary input: it
// must return an error or a structurally valid graph, never panic; the
// inline run and a 3-worker pool must agree on the graph and on the error
// text; and an accepted graph must survive a write/reparse round trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 2.5\n")
	f.Add("# vertices 10\n0 1 1\n")
	f.Add("")
	f.Add("x y z\n")
	f.Add("-1 -2\n")
	seedFromTestdata(f, "karate_small.txt")
	f.Add("# vertices -5\n0 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Lower the vertex bound: a single hostile line can legitimately ask
		// ReadEdgeList for a ~2^31-vertex graph, which is valid but far too
		// large to allocate per fuzz input.
		g, err := parseEdgeList([]byte(input), nil, 1<<20)
		pool := par.NewPool(3)
		gp, perr := parseEdgeList([]byte(input), pool, 1<<20)
		pool.Close()
		if (err == nil) != (perr == nil) {
			t.Fatalf("inline err %v, pool err %v", err, perr)
		}
		if err != nil {
			if err.Error() != perr.Error() {
				t.Fatalf("inline error %q, pool error %q", err, perr)
			}
			return
		}
		if diff := graphsIdentical(g, gp); diff != "" {
			t.Fatalf("pool parse diverged from the inline one: %s", diff)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parser accepted input %q but produced invalid graph: %v", input, err)
		}
		// Round trip: what the writer emits, the parser must accept and
		// reproduce with identical structure.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("writing accepted graph back: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), 1)
		if err != nil {
			t.Fatalf("reparsing written graph: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() {
			t.Fatalf("round trip changed shape: %d/%d vertices, %d/%d arcs",
				g.NumVertices(), g2.NumVertices(), g.NumArcs(), g2.NumArcs())
		}
	})
}

// FuzzReadMETIS exercises the METIS parser the same way: arbitrary input
// must yield an error or a structurally valid graph, never a panic.
func FuzzReadMETIS(f *testing.F) {
	f.Add("3 3\n2 3\n1 3\n1 2\n")
	f.Add("% a comment\n3 2 001\n2 1.5\n1 1.5 3 2\n2 2\n")
	f.Add("")
	f.Add("1 0\n\n")
	f.Add("2 1 011\n2 1\n1 1\n")
	f.Add("4 2\n2\n1 3\n2\n\n")
	seedFromTestdata(f, "ring6.metis")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := readMETIS(strings.NewReader(input), 1<<20)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parser accepted input %q but produced invalid graph: %v", input, err)
		}
	})
}

// FuzzReadBinarySharded exercises the sharded loader against arbitrary
// bytes: hostile shard indexes (bad offsets, counts, bounds) must produce
// errors, never panics or payload-sized allocations, and an accepted graph
// must be structurally valid.
func FuzzReadBinarySharded(f *testing.F) {
	g, err := FromEdges(6, []Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 2}, {U: 4, V: 5, W: 0.5}, {U: 1, V: 1, W: 3}})
	if err != nil {
		f.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		var buf bytes.Buffer
		if err := writeSharded(&buf, g, shards, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		var v2 bytes.Buffer
		if err := WriteBinaryShardedV2(&v2, g, shards); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xa2, 0x50, 0x72, 0x47, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readSharded(data, 2)
		if err != nil {
			return
		}
		// A crafted index can encode an asymmetric graph, so full Validate
		// symmetry is not guaranteed — but counts and CSR structure are.
		if g.NumVertices() < 0 || g.NumArcs() < 0 {
			t.Fatal("negative sizes")
		}
		for u := 0; u < g.NumVertices(); u++ {
			lo, hi := g.ArcRange(u)
			if lo > hi {
				t.Fatalf("vertex %d: offsets not monotone", u)
			}
		}
	})
}

// flatAsShard rewrites a flat .bin as the one-shard v1 .sbin holding the
// same payload: the flat header's magic + uvarint n + uvarint arcs become
// the fixed-width sharded header and a single index entry. ok is false when
// the flat header itself does not parse.
func flatAsShard(data []byte) (sbin []byte, ok bool) {
	rd := wire.NewReader(data)
	m, n, arcs := rd.U32(), rd.Uvarint(), rd.Uvarint()
	if rd.Err() != nil || m != binaryMagic {
		return nil, false
	}
	payload := data[len(data)-rd.Remaining():]
	b := wire.NewBuffer(shardedHeaderLen + shardIndexEntryLen + len(payload))
	b.PutU32(shardedMagic)
	b.PutU64(n)
	b.PutU64(arcs)
	b.PutU32(1)
	b.PutU64(n)
	b.PutU64(uint64(len(payload)))
	b.PutU64(arcs)
	return append(b.Bytes(), payload...), true
}

// FuzzReadBinary exercises the flat binary parser against arbitrary bytes:
// an error or a graph with sane counts, never a panic or a header-sized
// allocation. And since ReadBinary decodes a flat file as one v1 shard, it
// must accept exactly the inputs whose one-shard rewrite the sharded reader
// accepts, with the same graph.
func FuzzReadBinary(f *testing.F) {
	g, err := FromEdges(4, []Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 2}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xa1, 0x50, 0x72, 0x47, 0xff})
	// Hostile headers: n and arcs far beyond what the bytes present can hold.
	f.Add([]byte{0xa1, 0x50, 0x72, 0x47, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00})
	f.Add([]byte{0xa1, 0x50, 0x72, 0x47, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		sbin, ok := flatAsShard(data)
		if !ok {
			if err == nil {
				t.Fatal("accepted a file whose header does not parse")
			}
			return
		}
		gs, serr := readSharded(sbin, 1)
		if (err == nil) != (serr == nil) {
			t.Fatalf("flat err %v, one-shard v1 err %v", err, serr)
		}
		if err != nil {
			return
		}
		if g.NumVertices() < 0 || g.NumArcs() < 0 {
			t.Fatal("negative sizes")
		}
		if diff := graphsIdentical(g, gs); diff != "" {
			t.Fatalf("flat decode differs from its one-shard v1 rewrite: %s", diff)
		}
	})
}

// FuzzReadWindow exercises the windowed decode path (ReadWindow, which the
// out-of-core pipeline lives on) against arbitrary bytes — hostile headers,
// truncated windows, overlapping shard indexes — in both format versions.
// The invariant: whenever the whole-file decoder accepts the input, every
// window must decode without error to exactly the matching slice of
// ReadAll's graph; and on rejected input the windowed path must error,
// never panic.
func FuzzReadWindow(f *testing.F) {
	g, err := FromEdges(8, []Edge{
		{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}, {U: 4, V: 5, W: 2},
		{U: 6, V: 7, W: 1}, {U: 1, V: 1, W: 3}, {U: 3, V: 6, W: 0.5},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		var v1, v2 bytes.Buffer
		if err := writeSharded(&v1, g, shards, nil); err != nil {
			f.Fatal(err)
		}
		if err := WriteBinaryShardedV2(&v2, g, shards); err != nil {
			f.Fatal(err)
		}
		f.Add(v1.Bytes())
		f.Add(v2.Bytes())
		// Truncated-window seed: the index survives, the payload does not.
		f.Add(v2.Bytes()[:v2.Len()-2])
	}
	f.Add([]byte{})
	f.Add([]byte{0xa3, 0x50, 0x72, 0x47, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenSharded(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		full, ferr := s.ReadAll(2)
		if ferr != nil {
			// The input fails somewhere in a payload; the windowed decoder
			// shares those validation paths and must fail cleanly too, but
			// which shard errors first is its to decide.
			failed := false
			for i := 0; i < s.NumShards(); i++ {
				if _, werr := s.ReadWindow(i); werr != nil {
					failed = true
				}
			}
			if !failed {
				t.Fatalf("ReadAll rejected (%v) but every window decoded", ferr)
			}
			return
		}
		for i := 0; i < s.NumShards(); i++ {
			w, werr := s.ReadWindow(i)
			if werr != nil {
				t.Fatalf("ReadAll accepted but window %d rejected: %v", i, werr)
			}
			if lo, hi := s.ShardRange(i); w.Lo != lo || w.Hi != hi {
				t.Fatalf("window %d covers [%d,%d), index says [%d,%d)", i, w.Lo, w.Hi, lo, hi)
			}
			for u := w.Lo; u < w.Hi; u++ {
				wantT, wantW := full.Neighbors(u)
				gotT, gotW := w.Arcs(u)
				if len(gotT) != len(wantT) {
					t.Fatalf("vertex %d: window %d arcs, ReadAll %d", u, len(gotT), len(wantT))
				}
				for k := range wantT {
					if gotT[k] != wantT[k] || math.Float64bits(gotW[k]) != math.Float64bits(wantW[k]) {
						t.Fatalf("vertex %d arc %d: window (%d,%v), ReadAll (%d,%v)",
							u, k, gotT[k], gotW[k], wantT[k], wantW[k])
					}
				}
			}
		}
	})
}
