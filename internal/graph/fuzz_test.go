package graph

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// must return an error or a structurally valid graph, never panic, and an
// accepted graph must survive a write/reparse round trip bit for bit.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 2.5\n")
	f.Add("# vertices 10\n0 1 1\n")
	f.Add("")
	f.Add("x y z\n")
	f.Add("-1 -2\n")
	seedFromTestdata(f, "karate_small.txt")
	f.Add("# vertices -5\n0 1\n")
	f.Add("0 1 1\n1 0 -1\n2 2 NaN\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Lower the vertex bound: a single hostile line can legitimately ask
		// ReadEdgeList for a ~2^31-vertex graph, which is valid but far too
		// large to allocate per fuzz input.
		g, err := readEdgeList(strings.NewReader(input), 1<<20)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parser accepted input %q but produced invalid graph: %v", input, err)
		}
		// Round trip: what the writer emits, the parser must accept and
		// reproduce. %g prints the shortest representation that parses back
		// to the same float, so the graph comes back bit for bit.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("writing accepted graph back: %v", err)
		}
		g2, err := readEdgeList(&buf, 1<<20)
		if err != nil {
			t.Fatalf("reparsing written graph: %v", err)
		}
		if diff := graphsIdentical(g, g2); diff != "" {
			t.Fatalf("round trip changed the graph: %s", diff)
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

// nanGraph is a small seed graph whose dictionary holds a NaN after an
// ordinary weight, so the corpus starts from weights other than 1.
func nanGraph(f *testing.F) *Graph {
	g, err := FromEdges(5, []Edge{{U: 0, V: 1, W: 0.25}, {U: 1, V: 2, W: math.NaN()}, {U: 2, V: 3, W: 7}, {U: 3, V: 4, W: 0.25}})
	if err != nil {
		f.Fatal(err)
	}
	return g
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
	nan := nanGraph(f)
	for _, shards := range []int{1, 3} {
		f.Add(encodeSharded(f, nan, shards))
		f.Add(encodeSharded(f, g, shards))
	}
	f.Add([]byte{})
	f.Add([]byte{0xa3, 0x50, 0x72, 0x47, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readSharded(data)
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

// FuzzReadWindow exercises the windowed decode path (ReadWindow, which the
// out-of-core pipeline lives on) against arbitrary bytes — hostile headers,
// truncated windows, overlapping shard indexes, a NaN in the dictionary.
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
	nan := nanGraph(f)
	for _, shards := range []int{1, 3} {
		enc := encodeSharded(f, g, shards)
		f.Add(encodeSharded(f, nan, shards))
		f.Add(enc)
		// Truncated-window seed: the index survives, the payload does not.
		f.Add(enc[:len(enc)-2])
	}
	f.Add([]byte{})
	f.Add([]byte{0xa3, 0x50, 0x72, 0x47, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenSharded(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		full, ferr := s.ReadAll(0)
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
