package core

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// scaledWeightGraph is rmat:scale=9,seed=3 reweighted off the integer path:
// every edge gets one of a cycle of dyadic weights (1/2, 5/4, 3, 3/8, 2,
// 3/2, 3/4; the smallest shares 17 trailing zero bits with the rest in
// 2⁻²⁰ units), and the first edge of the first vertex with one gets 0.1,
// which partition.Quantise rounds once to an odd count of units. So the
// weight frames carry scales strictly between 0 and 20 while the rounded
// weight stays out of them, and scale 0 once it is in.
func scaledWeightGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.Graph500RMAT(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	cycle := []float64{0.5, 1.25, 3, 0.375, 2, 1.5, 0.75}
	n := g.NumVertices()
	ru, rv := -1, -1 // the edge that takes the rounded weight
	for u := 0; u < n && ru < 0; u++ {
		if tu, _ := g.Neighbors(u); len(tu) > 0 {
			ru, rv = min(u, int(tu[0])), max(u, int(tu[0]))
		}
	}
	ts := make([][]int32, n)
	ws := make([][]float64, n)
	for u := 0; u < n; u++ {
		tu, _ := g.Neighbors(u)
		ts[u] = append([]int32(nil), tu...)
		for _, v := range tu {
			a, b := min(u, int(v)), max(u, int(v))
			w := cycle[(a*31+b*17)%len(cycle)]
			if a == ru && b == rv {
				w = 0.1
			}
			ws[u] = append(ws[u], w)
		}
	}
	h, err := graph.FromArcLists(n, ts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestScaledWeightsCrossMatrix runs the reweighted R-MAT through both
// partitionings at P = 2 and 4, in process with the exact Σ invariants
// checked every iteration and over loopback TCP. Q and the membership hash
// of the enhanced rows are the rows the solver returned before weights
// travelled scaled (the frames then carried every weight in full 2⁻²⁰
// units): the scale is exact, so nothing but the bytes may move. The sized
// rows were recorded when that rule became the default. The TCP result must equal the
// in-process one field by field, the per-exchange byte rows included. The
// push and flush frames seen on the way must carry both a scale strictly
// between 0 and 20 and scale 0, or the fixture proves less than it claims.
func TestScaledWeightsCrossMatrix(t *testing.T) {
	withInvariants(t)
	g := scaledWeightGraph(t)
	var mu sync.Mutex
	seen := map[string]map[byte]bool{"push": {}, "flush": {}}
	record := func(kind string, s *stage) {
		mu.Lock()
		defer mu.Unlock()
		for r, f := range s.frames {
			if r != s.rnk && len(f) > 0 {
				seen[kind][f[0]] = true
			}
		}
	}
	testPushHook = func(s *stage, iter int) error { record("push", s); return nil }
	testIterHook = func(s *stage, iter int, q float64) error { record("flush", s); return nil }
	defer func() { testPushHook, testIterHook = nil, nil }()

	for _, row := range []struct {
		h        Heuristic
		kind     partition.Kind
		dhigh, p int
		q        string
		hash     uint64
	}{
		{HeuristicEnhanced, partition.Delegate, 16, 2, "0x1.7dcbca467cd94p-03", 0x4c1779f0bc1daa78},
		{HeuristicEnhanced, partition.Delegate, 16, 4, "0x1.3efda5a3dca3dp-03", 0x12ef8efa2b3ba03a},
		{HeuristicEnhanced, partition.OneD, 0, 2, "0x1.930f7ae181b4ep-03", 0xa0c1a87621ba077e},
		{HeuristicEnhanced, partition.OneD, 0, 4, "0x1.907ec209e5b78p-03", 0xd91b5b307742e565},
		{HeuristicSized, partition.Delegate, 16, 2, "0x1.713f13591e05ap-03", 0xc6784b03ff53c95b},
		{HeuristicSized, partition.Delegate, 16, 4, "0x1.38e55cd51f45p-03", 0xe356a22864de3461},
		{HeuristicSized, partition.OneD, 0, 2, "0x1.9844e844ecff2p-03", 0x8ac6337513260bff},
		{HeuristicSized, partition.OneD, 0, 4, "0x1.993624f8c3ad2p-03", 0xb1bfa3134a7a1181},
	} {
		name := fmt.Sprintf("%v/%v/dhigh=%d/p=%d", row.h, row.kind, row.dhigh, row.p)
		opt := Options{P: row.p, Partitioning: row.kind, DHigh: row.dhigh, Heuristic: row.h}
		want, err := Run(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if row.kind == partition.Delegate && want.HubCount == 0 {
			t.Fatalf("%s: no hubs", name)
		}
		q, h := strconv.FormatFloat(want.Modularity, 'x', -1, 64), membershipHash(want.Membership)
		if q != row.q || h != row.hash {
			t.Errorf("%s: Q %s, membership hash %#016x; recorded %s, %#016x", name, q, h, row.q, row.hash)
		}
		sameResult(t, name, worldResult(t, tcpWorld(t), g, opt), want)
	}
	for kind, scales := range seen {
		mid := false
		for s := range scales {
			mid = mid || (s > 0 && s < 20)
		}
		if !scales[0] || !mid {
			t.Errorf("%s frames carried scales %v, want 0 and one strictly between 0 and 20", kind, scales)
		}
	}
}
