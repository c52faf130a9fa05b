package partition

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestScrambleBijection checks the tabulated π exhaustively for every
// n ≤ 4096, at sizes around the benchmark's and on both sides of every
// power of two up to 2^20, where the mixing range changes: π maps [0, n)
// onto itself without a collision, and π⁻¹[π[u]] = u for every u.
func TestScrambleBijection(t *testing.T) {
	if scrambleMul1&scrambleMul2&1 == 0 {
		t.Fatal("a multiplier is even, so not invertible modulo 2^k")
	}
	sizes := []int{20000, 60000}
	for n := 0; n <= 4096; n++ {
		sizes = append(sizes, n)
	}
	for k := 0; k <= 20; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range sizes {
		pi, inv := scrambleTables(n)
		if len(pi) != n || len(inv) != n {
			t.Fatalf("n=%d: tables of %d and %d entries", n, len(pi), len(inv))
		}
		seen := make([]bool, n)
		for u, y := range pi {
			if y < 0 || int(y) >= n || seen[y] {
				t.Fatalf("n=%d: π(%d) = %d, outside [0, n) or taken", n, u, y)
			}
			seen[y] = true
			if back := inv[y]; int(back) != u {
				t.Fatalf("n=%d: π⁻¹(π(%d)) = %d", n, u, back)
			}
		}
	}
}

// TestLayoutSharesOneScramble pins one π table pair per Layout: in a Build
// and a BuildStreaming layout of one graph at P ∈ {1, 4, 7}, every part's
// Pi and PiInv alias the same two arrays, which hold the tabulated π and
// π⁻¹ of the graph's vertex count, so the twins' tables are equal.
func TestLayoutSharesOneScramble(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&buf, g, 9); err != nil {
		t.Fatal(err)
	}
	s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	pi, inv := scrambleTables(g.NumVertices())
	for _, p := range []int{1, 4, 7} {
		built, err := Build(g, Options{P: p})
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := BuildStreaming(s, Options{P: p})
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range map[string]*Layout{"Build": built, "BuildStreaming": streamed} {
			first := l.Parts[0]
			if !slices.Equal(first.Pi, pi) || !slices.Equal(first.PiInv, inv) {
				t.Fatalf("%s p=%d: the part's tables are not π and π⁻¹", name, p)
			}
			for _, sp := range l.Parts[1:] {
				if len(sp.Pi) != len(pi) || len(sp.PiInv) != len(inv) ||
					&sp.Pi[0] != &first.Pi[0] || &sp.PiInv[0] != &first.PiInv[0] {
					t.Fatalf("%s p=%d: rank %d holds its own π tables", name, p, sp.Rank)
				}
			}
		}
	}
}

// unscrambled returns g relabelled by π⁻¹: its vertex π⁻¹(u) is g's u, so
// the partitioner's π takes every id back to where g had it.
func unscrambled(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	n := g.NumVertices()
	_, inv := scrambleTables(n)
	ts := make([][]int32, n)
	ws := make([][]float64, n)
	for u := 0; u < n; u++ {
		tu, wu := g.Neighbors(u)
		x := inv[u]
		for _, v := range tu {
			ts[x] = append(ts[x], inv[v])
		}
		ws[x] = append([]float64(nil), wu...)
	}
	h, err := graph.FromArcLists(n, ts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestScrambleIsRelabelling proves that π is only a relabelling: Build of
// the corpus relabelled by π⁻¹ is the layout the identity map built before
// π existed, digest for digest. The digests are the ones TestLayoutDigests
// held then. A graph stores each vertex's arcs by target, so the relabelled
// graph lists an owned vertex's arcs in π⁻¹ order; they are put back in
// π-target order before hashing (the solver's results do not depend on
// that order). Hub shares and the spill pool need nothing: build orders
// them by π-target itself.
func TestScrambleIsRelabelling(t *testing.T) {
	identityDigests := []struct {
		graph    string
		kind     Kind
		dhigh, p int
		digest   uint64
	}{
		{"golden", Delegate, 1, 1, 0x1a3ea09186a2fd82},
		{"golden", Delegate, 2, 2, 0x9cda24b8ad558e47},
		{"golden", Delegate, 4, 4, 0xef5ce4b0c1a26dbe},
		{"golden", Delegate, 7, 7, 0xb85545f481c3bb48},
		{"golden", Delegate, 8, 1, 0x9559420a69369b48},
		{"golden", Delegate, 8, 2, 0x8c3b8a8db88ffbf0},
		{"golden", Delegate, 8, 4, 0xa9680a5104e61bc8},
		{"golden", Delegate, 8, 7, 0x14e1b27b4f6eaef1},
		{"golden", OneD, 1, 1, 0xfe7e1dcbeab81573},
		{"golden", OneD, 2, 2, 0x5fff1d63edf0ae49},
		{"golden", OneD, 4, 4, 0xaffce7adc9026380},
		{"golden", OneD, 7, 7, 0x150df411d0db3b39},
		{"rmat12", Delegate, 1, 1, 0x7c3a3b5af46017ab},
		{"rmat12", Delegate, 2, 2, 0x5264fe2c9897b2d0},
		{"rmat12", Delegate, 4, 4, 0x32506b1473cbfe14},
		{"rmat12", Delegate, 7, 7, 0x38c4be2918ee98d3},
		{"rmat12", Delegate, 8, 1, 0xb1ab1bc53c2ddfe6},
		{"rmat12", Delegate, 8, 2, 0xb2004b37782cae75},
		{"rmat12", Delegate, 8, 4, 0x8af6006542fd3bb3},
		{"rmat12", Delegate, 8, 7, 0x56c1c5dc6f4b2690},
		{"rmat12", OneD, 1, 1, 0xc90fe49dab314370},
		{"rmat12", OneD, 2, 2, 0xc71cb94c8762f608},
		{"rmat12", OneD, 4, 4, 0xa9e559d1d1446535},
		{"rmat12", OneD, 7, 7, 0x93ea89705ce1ca95},
		{"lfr3000", Delegate, 1, 1, 0xa3a783b5a49b7a48},
		{"lfr3000", Delegate, 2, 2, 0xb592e1eeec96026e},
		{"lfr3000", Delegate, 4, 4, 0x92acdbec24147573},
		{"lfr3000", Delegate, 7, 7, 0x9dae9eae3ba72467},
		{"lfr3000", Delegate, 8, 1, 0x69e218395ffa08cf},
		{"lfr3000", Delegate, 8, 2, 0x4a1731538b007c31},
		{"lfr3000", Delegate, 8, 4, 0x02acce8060fb6437},
		{"lfr3000", Delegate, 8, 7, 0xb2aa9f07a6712726},
		{"lfr3000", OneD, 1, 1, 0xb5ff939dacc0a748},
		{"lfr3000", OneD, 2, 2, 0x4df48614dcdac5c6},
		{"lfr3000", OneD, 4, 4, 0xd8d80824da923cf1},
		{"lfr3000", OneD, 7, 7, 0x298dc545aba107ec},
	}
	gs := digestGraphs(t)
	for name, g := range gs {
		gs[name] = unscrambled(t, g)
	}
	for _, row := range identityDigests {
		l, err := Build(gs[row.graph], Options{P: row.p, Kind: row.kind, DHigh: row.dhigh})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range l.Parts {
			for _, adj := range sp.AdjOwned {
				slices.SortFunc(adj, func(a, b Arc) int { return a.To - b.To })
			}
		}
		if d := layoutDigest(l); d != row.digest {
			t.Errorf("%s: relabelled digest %#016x, identity-map digest %#016x",
				fmt.Sprintf("%s/%v/dhigh=%d/p=%d", row.graph, row.kind, row.dhigh, row.p), d, row.digest)
		}
	}
}
