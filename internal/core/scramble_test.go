package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// membershipHash is FNV-64a over a membership's labels, 8 bytes each.
func membershipHash(m graph.Membership) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range m {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

// piInv returns the π⁻¹ table a Layout of g carries.
func piInv(t *testing.T, g *graph.Graph) []int32 {
	t.Helper()
	l, err := partition.Build(g, partition.Options{P: 1, Kind: partition.OneD})
	if err != nil {
		t.Fatal(err)
	}
	return l.Parts[0].PiInv
}

// unscrambled returns g relabelled by π⁻¹: its vertex π⁻¹(u) is g's u, so
// the partitioner's π takes every id back to where g had it.
func unscrambled(t *testing.T, g *graph.Graph) *graph.Graph {
	inv := piInv(t, g)
	return relabelled(t, g, func(u int) int { return int(inv[u]) })
}

// relabelled returns g with its vertex u renamed to to(u), a bijection.
func relabelled(t *testing.T, g *graph.Graph, to func(int) int) *graph.Graph {
	t.Helper()
	n := g.NumVertices()
	ts := make([][]int32, n)
	ws := make([][]float64, n)
	for u := 0; u < n; u++ {
		tu, wu := g.Neighbors(u)
		x := to(u)
		for _, v := range tu {
			ts[x] = append(ts[x], int32(to(int(v))))
		}
		ws[x] = append([]float64(nil), wu...)
	}
	h, err := graph.FromArcLists(n, ts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestGoldenQAcrossLabellings bounds the golden fixture's Q at P > 1, which
// depends on how the vertex ids fall: the minimum-label rules order
// communities by id, and on 48 vertices one unlucky order costs a tenth of
// Q. The fixture's own π-space order is such a draw for the enhanced and
// strict rules (its Q lies in the lowest sixth of 200 random orders), as
// the identity map's was for the simple rule at P = 4. So the fixture's
// Q may not fall below what TestGoldenEndToEnd records, and over 32 seeded
// random orders at least half must come within 0.5% of the sequential
// answer's Q — except under the simple rule at P = 4, whose bouncing
// (Figure 3) costs Q on most orders.
func TestGoldenQAcrossLabellings(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumVertices()
	for _, row := range []struct {
		h     Heuristic
		p     int
		floor float64 // the golden's Q, rounded down
		most  bool    // most random orders come within 0.5% of the sequential Q
	}{
		{HeuristicEnhanced, 2, 0.5151, true},
		{HeuristicEnhanced, 4, 0.5020, true},
		{HeuristicSimple, 2, 0.5265, true},
		{HeuristicSimple, 4, 0.4328, false},
		{HeuristicStrict, 2, 0.4671, true},
		{HeuristicStrict, 4, 0.4806, true},
	} {
		name := fmt.Sprintf("%v/p=%d", row.h, row.p)
		opt := Options{P: row.p, Heuristic: row.h}
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Modularity < row.floor {
			t.Errorf("%s: Q %.6f, below the recorded %.4f", name, res.Modularity, row.floor)
		}
		seq, err := Run(g, Options{P: 1, Heuristic: row.h})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		reached := 0
		const orders = 32
		for range orders {
			perm := rng.Perm(n)
			r, err := Run(relabelled(t, g, func(u int) int { return perm[u] }), opt)
			if err != nil {
				t.Fatal(err)
			}
			if r.Modularity >= 0.995*seq.Modularity {
				reached++
			}
		}
		if row.most && 2*reached < orders {
			t.Errorf("%s: %d of %d random orders come within 0.5%% of the sequential Q %.4f", name, reached, orders, seq.Modularity)
		}
		t.Logf("%s: Q %.4f; %d of %d random orders within 0.5%% of %.4f", name, res.Modularity, reached, orders, seq.Modularity)
	}
}

// TestRelabelledSolveMatchesIdentityMap proves that π changes nothing but
// the names: solving g relabelled by π⁻¹ runs the solver on exactly the
// π-space graph that g itself was before π existed, so its answer, mapped
// back to g's ids and normalized, is the answer the identity map gave — Q
// to the bit, the membership hash, and the messages and bytes on the wire.
// The rows are what the solver returned for g under the identity map: the
// golden fixture (whose default threshold picks no hubs, so Delegate = 1D
// there) at every heuristic, with 24 hubs at DHigh = 8, and rmat:scale=12
// under 1D and under the default threshold, which delegates hubs at P > 1
// under the identity map. The identity map solved them under τ0 = 3e-3,
// so the rows run under that stop rule. The byte column was re-recorded
// twice since: when the owner lookups began asking once per distinct id in
// delta-coded frames (a lookup is a pure read at the owner, so Q, the
// hashes and the message counts stayed the identity map's and only the
// lookup frames shrank), and when the push, flush and merge frames began
// shipping weights under a per-frame scale byte (exact, so again only the
// bytes moved: down on the integer-weighted R-MAT, up on the golden
// fixture, whose random real weights ship at scale 0 behind the new byte).
func TestRelabelledSolveMatchesIdentityMap(t *testing.T) {
	golden := goldenGraph(t)
	rmat, _, err := gen.ParseSpec("rmat:scale=12")
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"golden": unscrambled(t, golden), "rmat12": unscrambled(t, rmat)}
	for _, row := range []struct {
		graph       string
		kind        partition.Kind
		h           Heuristic
		dhigh, p    int
		q           string
		hash        uint64
		msgs, bytes int64
	}{
		{"golden", partition.OneD, HeuristicEnhanced, 0, 1, "0x1.0d94c15c5c5bap-01", 0xd0a703f68e2c97c6, 0, 0},
		{"golden", partition.OneD, HeuristicEnhanced, 0, 2, "0x1.0d94c15c5c5bap-01", 0xd0a703f68e2c97c6, 146, 2266},
		{"golden", partition.OneD, HeuristicEnhanced, 0, 3, "0x1.0d94c15c5c5b9p-01", 0xd0a703f68e2c97c6, 498, 4824},
		{"golden", partition.OneD, HeuristicEnhanced, 0, 4, "0x1.0d7f4ef984842p-01", 0x2c47c40d26581aa5, 912, 8368},
		{"golden", partition.OneD, HeuristicSimple, 0, 1, "0x1.0d94c15c5c5bap-01", 0xd0a703f68e2c97c6, 0, 0},
		{"golden", partition.OneD, HeuristicSimple, 0, 2, "0x1.0d94c15c5c5b9p-01", 0xd0a703f68e2c97c6, 78, 1906},
		{"golden", partition.OneD, HeuristicSimple, 0, 4, "0x1.5ef65ade1bbd9p-03", 0xa6524a8f7590ef26, 788, 12901},
		{"golden", partition.OneD, HeuristicStrict, 0, 1, "0x1.0d7f4ef984842p-01", 0x2c47c40d26581aa5, 0, 0},
		{"golden", partition.OneD, HeuristicStrict, 0, 2, "0x1.0d7f4ef984842p-01", 0x2c47c40d26581aa5, 124, 2136},
		{"golden", partition.OneD, HeuristicStrict, 0, 4, "0x1.0d7f4ef984842p-01", 0x2c47c40d26581aa5, 824, 7256},
		{"golden", partition.Delegate, HeuristicEnhanced, 8, 1, "0x1.0d94c15c5c5bap-01", 0xd0a703f68e2c97c6, 0, 0},
		{"golden", partition.Delegate, HeuristicEnhanced, 8, 2, "0x1.0d94c15c5c5b9p-01", 0xd0a703f68e2c97c6, 170, 3379},
		{"golden", partition.Delegate, HeuristicEnhanced, 8, 3, "0x1.7d60170edf132p-02", 0x9bdecb73b57b6266, 482, 7025},
		{"golden", partition.Delegate, HeuristicEnhanced, 8, 4, "0x1.e4b8f3930972fp-02", 0xf7304c3055d1c3c4, 736, 8527},
		{"rmat12", partition.OneD, HeuristicEnhanced, 0, 1, "0x1.d67b6b68a4438p-04", 0x81afad0021a888b5, 0, 0},
		{"rmat12", partition.OneD, HeuristicEnhanced, 0, 2, "0x1.d516162c2c0bep-04", 0xc2abc0e72c4b0608, 366, 71468},
		{"rmat12", partition.OneD, HeuristicEnhanced, 0, 4, "0x1.b72ef9fb708p-04", 0xb822b47bcae90917, 1700, 165127},
		{"rmat12", partition.Delegate, HeuristicEnhanced, 0, 2, "0x1.bed0c2bc6af39p-04", 0xe26ddd82f6596a41, 362, 79645},   // 41 hubs
		{"rmat12", partition.Delegate, HeuristicEnhanced, 0, 4, "0x1.9e07f242c0c22p-04", 0xc16c0a473e908951, 2496, 219506}, // 118 hubs
	} {
		name := fmt.Sprintf("%s/%v/%v/dhigh=%d/p=%d", row.graph, row.kind, row.h, row.dhigh, row.p)
		res, err := RunStop(graphs[row.graph], Options{P: row.p, Partitioning: row.kind, Heuristic: row.h, DHigh: row.dhigh},
			StopRule{Tau0: 3e-3, Scale: 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inv := piInv(t, graphs[row.graph])
		m := make(graph.Membership, len(res.Membership))
		for u := range m {
			m[u] = res.Membership[inv[u]]
		}
		m.Normalize()
		var msgs int64
		for _, s := range res.CommStats.PerRank {
			msgs += s.MsgsSent
		}
		if q := strconv.FormatFloat(res.Modularity, 'x', -1, 64); q != row.q {
			t.Errorf("%s: Q %s, identity map %s", name, q, row.q)
		}
		if h := membershipHash(m); h != row.hash {
			t.Errorf("%s: membership hash %#016x, identity map %#016x", name, h, row.hash)
		}
		if bytes := res.CommStats.TotalBytesSent(); msgs != row.msgs || bytes != row.bytes {
			t.Errorf("%s: %d messages / %d bytes, identity map %d / %d", name, msgs, bytes, row.msgs, row.bytes)
		}
	}
}
