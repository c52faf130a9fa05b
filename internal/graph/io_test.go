package graph

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		at, aw := a.Neighbors(u)
		bt, bw := b.Neighbors(u)
		if len(at) != len(bt) {
			return false
		}
		for i := range at {
			if at[i] != bt[i] || aw[i] != bw[i] {
				return false
			}
		}
	}
	return true
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 1, 2.5}, {1, 2, 1}, {3, 3, 4}, {2, 4, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Error("edge list round trip mismatch")
	}
}

func TestReadEdgeListHeaderless(t *testing.T) {
	in := "# a comment\n0 1\n1 2 2.5\n\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.WeightedDegree(1) != 3.5 {
		t.Errorf("WeightedDegree(1) = %g, want 3.5", g.WeightedDegree(1))
	}
}

func TestReadEdgeListPreservesIsolatedTail(t *testing.T) {
	// header declares more vertices than appear in edges
	in := "# vertices 10\n0 1 1\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Errorf("NumVertices = %d, want 10", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, tc := range []struct{ bad, want string }{
		{"0\n", "need at least 2 fields"},
		{"x y\n", "bad source"},
		{"0 y\n", "bad target"},
		{"0 1 z\n", "bad weight"},
		{"0 1\n# vertices -5\n1 2\n", "graph: line 2: declared vertex count -5 is negative"},
	} {
		for _, procs := range []int{1, 2, 8} {
			setProcs(t, procs)
			_, err := ReadEdgeList(strings.NewReader(tc.bad))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("input %q procs=%d: error %v, want one containing %q", tc.bad, procs, err, tc.want)
			}
		}
	}
}

// writeBinary emits the flat .bin format as gengraph wrote it before the
// format became read-only. Production code no longer writes it; the tests
// keep the encoder so ReadBinary has inputs besides the committed file.
func writeBinary(w io.Writer, g *Graph) error {
	buf := wire.NewBuffer(int(g.NumArcs())*3 + 64)
	buf.PutU32(binaryMagic)
	buf.PutUvarint(uint64(g.NumVertices()))
	buf.PutUvarint(uint64(g.NumArcs()))
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.ArcRange(u)
		buf.PutUvarint(uint64(hi - lo))
		prev := int64(0)
		for a := lo; a < hi; a++ {
			t := int64(g.ArcTarget(a))
			buf.PutVarint(t - prev) // delta-coded sorted targets
			prev = t
			buf.PutF64(g.ArcWeight(a))
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// TestReadFileParentBin loads a .bin written by gengraph at the last commit
// that could write one (c4f0c52: -gen lfr:n=150,mu=0.3,seed=5) and requires
// the CSR digest that commit's own ReadFile gave for it.
func TestReadFileParentBin(t *testing.T) {
	for _, procs := range ingestProcs {
		setProcs(t, procs)
		g, err := ReadFile(filepath.Join("testdata", "lfr150_parent.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if got := csrDigest(g); got != 0x2307f01a67d4b1f0 || g.NumVertices() != 150 || g.NumArcs() != 820 {
			t.Fatalf("procs=%d: digest %#x, n=%d, arcs=%d; recorded 0x2307f01a67d4b1f0, 150, 820",
				procs, got, g.NumVertices(), g.NumArcs())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := make([]Edge, 500)
	for i := range edges {
		edges[i] = Edge{U: rng.Intn(100), V: rng.Intn(100), W: rng.Float64() * 10}
	}
	g, err := FromEdges(100, edges)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Error("binary round trip mismatch")
	}
	if g2.TotalWeight2() != g.TotalWeight2() {
		t.Errorf("2m mismatch: %g vs %g", g2.TotalWeight2(), g.TotalWeight2())
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3, 4, 5})); err == nil {
		t.Error("expected error for bad magic")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g, err := FromEdges(10, []Edge{{0, 1, 1}, {2, 3, 1}, {4, 5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 6, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated at %d: expected error", cut)
		}
	}
}
