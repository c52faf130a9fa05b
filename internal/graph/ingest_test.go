package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/par"
)

// ingestWorkerCounts is the matrix the reader tests sweep; 1 runs inline on
// a nil pool, 3 is an uneven split, 8 the bench configuration.
var ingestWorkerCounts = []int{1, 2, 3, 8}

// graphsIdentical reports the first bit-level difference between two graphs,
// or "" when they match exactly — offsets, targets, weights, and the
// wdeg/m2/loops caches all compared bitwise.
func graphsIdentical(a, b *Graph) string {
	if a.NumVertices() != b.NumVertices() {
		return fmt.Sprintf("n: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	for u := 0; u <= a.NumVertices(); u++ {
		if a.offsets[u] != b.offsets[u] {
			return fmt.Sprintf("offsets[%d]: %d vs %d", u, a.offsets[u], b.offsets[u])
		}
	}
	for i := range a.targets {
		if a.targets[i] != b.targets[i] {
			return fmt.Sprintf("targets[%d]: %d vs %d", i, a.targets[i], b.targets[i])
		}
		if math.Float64bits(a.weights[i]) != math.Float64bits(b.weights[i]) {
			return fmt.Sprintf("weights[%d]: %x vs %x", i, a.weights[i], b.weights[i])
		}
	}
	for u := range a.wdeg {
		if math.Float64bits(a.wdeg[u]) != math.Float64bits(b.wdeg[u]) {
			return fmt.Sprintf("wdeg[%d]: %x vs %x", u, a.wdeg[u], b.wdeg[u])
		}
	}
	if math.Float64bits(a.m2) != math.Float64bits(b.m2) {
		return fmt.Sprintf("m2: %x vs %x", a.m2, b.m2)
	}
	if a.loops != b.loops {
		return fmt.Sprintf("loops: %d vs %d", a.loops, b.loops)
	}
	return ""
}

// messyEdges produces a messy edge list: duplicates (to exercise the
// combine pass on both endpoints), self-loops, zero weights (the w=0→1
// convenience), and irregular float weights.
func messyEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		e := Edge{U: rng.Intn(n), V: rng.Intn(n)}
		switch rng.Intn(5) {
		case 0: // duplicate an earlier edge so weights sum
			if i > 0 {
				e = edges[rng.Intn(i)]
			}
		case 1:
			e.V = e.U // self-loop
		}
		switch rng.Intn(3) {
		case 0:
			e.W = 0
		case 1:
			e.W = rng.Float64() * 10
		default:
			e.W = 1
		}
		edges[i] = e
	}
	return edges
}

// csrDigest folds a graph's CSR arrays and caches into one FNV-1a value
// through the exported accessors, so a digest recorded by a program built
// from another commit means the same thing here.
func csrDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(g.NumVertices()))
	for u := 0; u < g.NumVertices(); u++ {
		ts, ws := g.Neighbors(u)
		put(uint64(len(ts)))
		for i := range ts {
			put(uint64(ts[i]))
			put(math.Float64bits(ws[i]))
		}
		put(math.Float64bits(g.WeightedDegree(u)))
	}
	put(math.Float64bits(g.TotalWeight2()))
	put(uint64(g.NumEdges()))
	return h.Sum64()
}

// ingestPools runs f on the nil pool (inline) and on 2-, 3- and 8-worker
// pools: the inline run, an even split, an uneven one, and more workers
// than this host has cores.
func ingestPools(f func(name string, pool *par.Pool)) {
	f("nil", nil)
	for _, w := range []int{2, 3, 8} {
		pool := par.NewPool(w)
		f(fmt.Sprintf("%d workers", w), pool)
		pool.Close()
	}
}

// poolFixture is the committed input of TestFromEdgesDeterministicAcrossPools:
// 40 vertices of which the last 8 are isolated, duplicate edges in both
// orientations whose weights do not add associatively, self-loops (one of
// them duplicated), and zero weights.
func poolFixture() (int, []Edge) {
	edges := []Edge{
		{0, 1, 0.1}, {1, 0, 0.2}, {0, 1, 0.3}, {1, 0, 1e-17}, // four copies of {0,1}
		{2, 2, 1.5}, {2, 2, 0}, {3, 3, 0.25}, // self-loops, one doubled with a zero weight
		{4, 5, 0}, {5, 4, 0}, {31, 0, 7}, {0, 31, 1e16}, {31, 0, 1},
	}
	for i := 0; i < 300; i++ {
		u, v := (i*7)%32, (i*i+3*i+1)%32
		edges = append(edges, Edge{U: u, V: v, W: float64(i%5) / 3})
	}
	return 40, edges
}

// TestFromEdgesDeterministicAcrossPools is what "parallel matches serial"
// became when FromEdges lost its serial body: on the committed fixture the
// counting sort must give the same CSR bytes on every pool, those bytes
// must be the ones the old per-vertex sort.Stable builder (fromEdgesSerial)
// gives, and they must hash to the committed digest, so a change to both
// builders at once still shows.
func TestFromEdgesDeterministicAcrossPools(t *testing.T) {
	n, edges := poolFixture()
	want, err := fromEdgesSerial(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Recorded from FromEdges at c4f0c52, where it was the serial builder.
	const fixtureDigest = 0x8699a7ab654e2c16
	ingestPools(func(name string, pool *par.Pool) {
		got, err := fromEdgesPool(n, edges, pool)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := graphsIdentical(want, got); diff != "" {
			t.Fatalf("%s: differs from the oracle: %s", name, diff)
		}
		if d := csrDigest(got); d != fixtureDigest {
			t.Fatalf("%s: CSR digest %#x, committed %#x", name, d, uint64(fixtureDigest))
		}
	})
	if want.Degree(39) != 0 || want.NumVertices() != 40 {
		t.Fatalf("isolated tail lost: n=%d, degree(39)=%d", want.NumVertices(), want.Degree(39))
	}
}

// TestFromEdgesParallelMatchesSerial compares the counting sort on every
// pool with the serial oracle on random messy inputs large enough that each
// of 8 workers gets a real share of the edges.
func TestFromEdgesParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ n, m int }{{50, 2000}, {1000, 20000}, {4096, 60000}} {
		edges := messyEdges(rng, tc.n, tc.m)
		want, err := fromEdgesSerial(tc.n, edges)
		if err != nil {
			t.Fatal(err)
		}
		ingestPools(func(name string, pool *par.Pool) {
			got, err := fromEdgesPool(tc.n, edges, pool)
			if err != nil {
				t.Fatalf("n=%d, %s: %v", tc.n, name, err)
			}
			if diff := graphsIdentical(want, got); diff != "" {
				t.Fatalf("n=%d m=%d, %s: %s", tc.n, tc.m, name, diff)
			}
		})
	}
}

func TestFromEdgesParallelBadEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := messyEdges(rng, 100, 5000)
	edges[1234].V = 100 // first out-of-range edge
	edges[4000].U = -7  // later one must not win
	_, serr := fromEdgesSerial(100, edges)
	if serr == nil {
		t.Fatal("oracle: expected error")
	}
	ingestPools(func(name string, pool *par.Pool) {
		_, perr := fromEdgesPool(100, edges, pool)
		if perr == nil || perr.Error() != serr.Error() {
			t.Fatalf("%s: error %q, want %q", name, perr, serr)
		}
	})
}

// bigEdgeListText renders a text edge list large enough that every chunk of
// an 8-worker parse holds many lines, with comments and blank lines
// sprinkled through it.
func bigEdgeListText(rng *rand.Rand, n, m int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# vertices %d\n", n)
	for i := 0; i < m; i++ {
		if i%97 == 0 {
			sb.WriteString("# a comment line\n\n")
		}
		switch i % 3 {
		case 0:
			fmt.Fprintf(&sb, "%d %d\n", rng.Intn(n), rng.Intn(n))
		case 1:
			fmt.Fprintf(&sb, "%d\t%d  %g\n", rng.Intn(n), rng.Intn(n), rng.Float64()*4)
		default:
			fmt.Fprintf(&sb, "%d %d %d\n", rng.Intn(n), rng.Intn(n), 1+rng.Intn(9))
		}
	}
	return sb.String()
}

// scanEdgeList is the unsplit reference for the chunked parser on
// well-formed input: one bufio.Scanner pass, strings.Fields, strconv.
func scanEdgeList(t *testing.T, text string) *Graph {
	t.Helper()
	n := -1
	var edges []Edge
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			fmt.Sscanf(line, "# vertices %d", &n)
			continue
		}
		f := strings.Fields(line)
		e := Edge{W: 1}
		var err error
		if e.U, err = strconv.Atoi(f[0]); err != nil {
			t.Fatal(err)
		}
		if e.V, err = strconv.Atoi(f[1]); err != nil {
			t.Fatal(err)
		}
		if len(f) > 2 {
			if e.W, err = strconv.ParseFloat(f[2], 64); err != nil {
				t.Fatal(err)
			}
		}
		edges = append(edges, e)
	}
	g, err := fromEdgesSerial(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReadEdgeListParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	text := bigEdgeListText(rng, 3000, 40000)
	want := scanEdgeList(t, text)
	for _, w := range ingestWorkerCounts {
		got, err := ReadEdgeList(strings.NewReader(text), w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if diff := graphsIdentical(want, got); diff != "" {
			t.Fatalf("workers=%d: %s", w, diff)
		}
	}
}

// TestReadEdgeListParallelErrors plants errors in a list long enough to be
// cut into many chunks: the reader must report the one on the smallest line
// number, with the same text at every worker count.
func TestReadEdgeListParallelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := bigEdgeListText(rng, 500, 20000)
	lines := strings.Split(base, "\n")
	for _, tc := range []struct {
		name    string
		mutate  func([]string)
		wantErr string // "" = the mutated list is valid
	}{
		{"early bad token", func(ls []string) { ls[50] = "7 oops" }, "graph: line 51: bad target"},
		{"late bad token", func(ls []string) { ls[len(ls)-10] = "nope 3" }, fmt.Sprintf("graph: line %d: bad source", len(lines)-9)},
		{"two errors", func(ls []string) { ls[len(ls)-10] = "x 1"; ls[40] = "0 1 w" }, "graph: line 41: bad weight"},
		{"negative id", func(ls []string) { ls[300] = "-4 2" }, "graph: line 301: endpoint (-4,2) outside"},
		{"missing field", func(ls []string) { ls[1000] = "42" }, "graph: line 1001: need at least 2 fields"},
		{"late declaration", func(ls []string) { ls[len(ls)-5] = "# vertices 9000" }, ""},
		{"negative declaration", func(ls []string) { ls[0] = "# vertices -5" }, "graph: line 1: declared vertex count -5 is negative"},
		{"negative declaration after an error", func(ls []string) { ls[70] = "1"; ls[len(ls)-5] = "# vertices -5" }, "graph: line 71: need at least 2 fields"},
	} {
		ls := append([]string(nil), lines...)
		tc.mutate(ls)
		text := strings.Join(ls, "\n")
		if len(text) < 1<<16 {
			t.Fatalf("%s: fixture of %d bytes is too small to cut into many-line chunks", tc.name, len(text))
		}
		var want *Graph
		if tc.wantErr == "" {
			want = scanEdgeList(t, text)
			if want.NumVertices() != 9000 {
				t.Fatalf("%s: reference has %d vertices, the last declaration says 9000", tc.name, want.NumVertices())
			}
		}
		for _, w := range ingestWorkerCounts {
			got, err := ReadEdgeList(strings.NewReader(text), w)
			if tc.wantErr != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
					t.Fatalf("%s workers=%d: error %v, want prefix %q", tc.name, w, err, tc.wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if diff := graphsIdentical(want, got); diff != "" {
				t.Fatalf("%s workers=%d: %s", tc.name, w, diff)
			}
		}
	}
}

func TestNumEdgesCached(t *testing.T) {
	g, err := FromEdges(6, []Edge{{0, 1, 1}, {1, 1, 2}, {2, 3, 1}, {4, 4, 1}, {0, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// 0-1 combined counts once, two self-loops, 2-3: 4 edges, 2 of them loops.
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if g.loops != 2 {
		t.Errorf("loops = %d, want 2", g.loops)
	}
	var buf bytes.Buffer
	if err := writeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.NumEdges(); got != 4 {
		t.Errorf("decoded NumEdges = %d, want 4", got)
	}
}
