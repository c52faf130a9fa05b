package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/partition"
)

// Tests for the solver's use of the collective engine: the per-iteration
// message budget (exactly one reduction carries moved count, work max, comm
// max, and Q) and the whole-solve traffic of the golden fixture.

// TestIterationSingleAllreduce pins the per-iteration message budget at
// P=4 under 1-D partitioning (no hubs, so delegateExchange sends nothing):
//
//	pushAggregates       1 alltoallv × (p−1)  = 3
//	ghostSwap            1 alltoallv × (p−1)  = 3
//	flushDeltas (+watch) 1 alltoallv × (p−1)  = 3
//	IterStats record     1 allreduce × log2 p = 2   → 11 total
//
// (14 while the aggregates were pulled: the request leg is gone, the watch
// requests ride the flush frames.) Any regression that reintroduces a
// separate per-iteration reduction — or sneaks in an extra exchange —
// shifts the count and fails here.
//
// The test solves the golden fixture and records MsgsSent per rank and stage
// at each iteration hook: the delta between consecutive iterations of the
// same stage is exactly one iteration's traffic (stage setup and merge frames
// fall between stages, never between iterations).
func TestIterationSingleAllreduce(t *testing.T) {
	const p = 4
	const want = 3*(p-1) + 2
	var mu sync.Mutex
	recs := make(map[*stage][]int64)
	testIterHook = func(s *stage, iter int, q float64) error {
		snap := s.c.Stats().Snapshot()
		mu.Lock()
		recs[s] = append(recs[s], snap.MsgsSent)
		mu.Unlock()
		return nil
	}
	defer func() { testIterHook = nil }()
	if _, err := Run(goldenGraph(t), Options{P: p, Partitioning: partition.OneD}); err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, ms := range recs {
		for i := 1; i < len(ms); i++ {
			if d := ms[i] - ms[i-1]; d != want {
				t.Fatalf("iteration sent %d messages per rank, want %d", d, want)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no stage ran two consecutive iterations; the budget was never checked")
	}
}

// TestGoldenTraffic pins what the goldens do not: the messages and bytes a
// whole solve of the golden fixture puts on the wire, summed over ranks.
// The numbers must not move when collectives are refactored — a changed
// frame layout, an extra exchange or a different reduction tree all show
// here while Q and the membership stay put. They were re-recorded when the
// per-iteration aggregate pull became standing watches (PR 14), every row
// at or below the pull's in both columns, and again when the sweep became
// the active-set sweep (PR 18): the hub rows converge over different
// iterations, the no-hub rows did not move (CHANGES.md has the old rows of
// both). The fixture's default hub threshold yields no hubs, so the delegate
// rows set DHigh = 8 (24 hubs) to put the hub-proposal allreduce on the wire;
// P = 3 covers the reduction's fold/unfold legs.
func TestGoldenTraffic(t *testing.T) {
	g := goldenGraph(t)
	for _, tc := range []struct {
		kind        partition.Kind
		p, dhigh    int
		msgs, bytes int64
	}{
		{partition.Delegate, 1, 0, 0, 0},
		{partition.Delegate, 2, 0, 146, 4496},
		{partition.Delegate, 4, 0, 912, 12295},
		{partition.Delegate, 1, 8, 0, 0},
		{partition.Delegate, 2, 8, 170, 9579},
		{partition.Delegate, 3, 8, 466, 15223},
		{partition.Delegate, 4, 8, 708, 21586},
		{partition.OneD, 1, 0, 0, 0},
		{partition.OneD, 2, 0, 146, 4496},
		{partition.OneD, 3, 0, 498, 8103},
		{partition.OneD, 4, 0, 912, 12295},
	} {
		name := fmt.Sprintf("%v/p=%d/dhigh=%d", tc.kind, tc.p, tc.dhigh)
		res, err := Run(g, Options{P: tc.p, Partitioning: tc.kind, DHigh: tc.dhigh})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var msgs int64
		for _, s := range res.CommStats.PerRank {
			msgs += s.MsgsSent
		}
		if bytes := res.CommStats.TotalBytesSent(); msgs != tc.msgs || bytes != tc.bytes {
			t.Errorf("%s: %d messages / %d bytes on the wire, recorded %d / %d", name, msgs, bytes, tc.msgs, tc.bytes)
		}
	}
}
