package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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
		{"0 1 1\n1 2 -1\n", "graph: line 2: bad weight \"-1\": negative or NaN"},
		{"0 1 NaN\n", "graph: line 1: bad weight \"NaN\": negative or NaN"},
		{"0 1\n# vertices -5\n1 2\n", "graph: line 2: declared vertex count -5 is negative"},
	} {
		_, err := ReadEdgeList(strings.NewReader(tc.bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("input %q: error %v, want one containing %q", tc.bad, err, tc.want)
		}
	}
}

// TestReadFileParentSbin loads the .sbin gengraph wrote for
// -gen lfr:n=150,mu=0.3,seed=5 -shards 4 at the commit before the format
// lost its v1 layout, requires the CSR digest that graph had then, and
// requires the writer to reproduce the file byte for byte.
func TestReadFileParentSbin(t *testing.T) {
	path := filepath.Join("testdata", "lfr150_parent.sbin")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range ingestProcs {
		setProcs(t, procs)
		g, err := ReadFile(path)
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
		if !bytes.Equal(encodeSharded(t, g, 4), want) {
			t.Fatalf("procs=%d: rewriting the decoded graph at 4 shards differs from the file", procs)
		}
	}
}

// TestReadMembership round-trips WriteMembership and reads a file whose
// lines come out of vertex order with a blank line between.
func TestReadMembership(t *testing.T) {
	want := Membership{5, 5, 7, 0, 7}
	var buf bytes.Buffer
	if err := WriteMembership(&buf, want); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "0 5\n1 5\n2 7\n3 0\n4 7\n" {
		t.Fatalf("written %q", buf.String())
	}
	for _, in := range []string{buf.String(), "4 7\n\n2 7\n  0 5 \n3 0\n1\t5"} {
		m, err := ReadMembership(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !slices.Equal(m, want) {
			t.Errorf("%q: read %v, want %v", in, m, want)
		}
	}
	if m, err := ReadMembership(strings.NewReader("")); err != nil || len(m) != 0 {
		t.Errorf("empty input: %v, %v", m, err)
	}
}

// TestReadMembershipErrors: every malformed file fails with the line it
// broke on, and an id far beyond the line count fails before the reader
// sizes anything by it.
func TestReadMembershipErrors(t *testing.T) {
	for _, tc := range []struct{ in, err string }{
		{"0 1\n2 1\n", "line 2: vertex 2 outside [0,2)"}, // vertex 1 missing
		{"0 0\n4000000000 1\n", "line 2: vertex 4000000000 outside [0,2)"},
		{"0 0\n0 1\n1 1\n", "line 2: vertex 0 listed twice"},
		{"-1 0\n", `line 1: bad vertex "-1"`},
		{"x y\n", `line 1: bad vertex "x"`},
		{"0 y\n", `line 1: bad community "y"`},
		{"0\n", "line 1: want"},
		{"0 1 2\n", "line 1: want"},
		{"0 99999999999999999999\n", "line 1: bad community"},
	} {
		if _, err := ReadMembership(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%q: err %v, want one containing %q", tc.in, err, tc.err)
		}
	}
}
