package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/wire"
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
// per-iteration aggregate pull became standing watches, every row at or
// below the pull's in both columns; when the sweep became the active-set
// sweep (the hub rows converge over different iterations); and when Σtot
// became an exact integer, whose varints replaced the f64 values of the
// push, flush and merge frames (every byte count fell, no message count
// moved); and when the merge began summing each (cu, cv) pair before the
// wire (byte counts only, again); and when hub moves became the owner's
// decision, shipped as live proposals to the owner and moves on the ghost
// frames instead of a dense per-hub vector through every reduction round
// (the hub rows only); and when the layout moved into π-space
// (Subgraph.Pi), which renames the fixture's vertices, so every row
// with P > 1 solved a different partition problem (the identity-map rows
// live on in TestRelabelledSolveMatchesIdentityMap); and when the owner
// lookups began asking once per distinct id in delta-coded frames (byte
// counts only); and when the push, flush and merge frames began shipping
// their weights under a per-frame scale byte (byte counts only: they rose,
// since this fixture's random real weights all ship at scale 0 and every
// push and flush frame gained its byte); and when the solve stopped
// summing the owned-vertex counts to learn n, which it already holds
// (2(P − 1) messages of 8 bytes fewer per solve). CHANGES.md has the old
// rows. The
// fixture's default hub threshold yields no hubs, so the delegate rows set
// DHigh = 8 (24 hubs) to put the hub-proposal exchange and the move
// sections on the wire; P = 3 keeps an odd world size in the set.
func TestGoldenTraffic(t *testing.T) {
	g := goldenGraph(t)
	for _, tc := range []struct {
		kind        partition.Kind
		p, dhigh    int
		msgs, bytes int64
	}{
		{partition.Delegate, 1, 0, 0, 0},
		{partition.Delegate, 2, 0, 144, 2252},
		{partition.Delegate, 4, 0, 860, 7425},
		{partition.Delegate, 1, 8, 0, 0},
		{partition.Delegate, 2, 8, 168, 3337},
		{partition.Delegate, 3, 8, 334, 5441},
		{partition.Delegate, 4, 8, 772, 9598},
		{partition.OneD, 1, 0, 0, 0},
		{partition.OneD, 2, 0, 144, 2252},
		{partition.OneD, 3, 0, 344, 4279},
		{partition.OneD, 4, 0, 860, 7425},
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

// TestWireBytesSumToTraffic checks the per-exchange byte rows of a solve
// against its traffic census: over the golden fixture and a hub-bearing
// R-MAT, both partitionings and P = 1 to 4, with the invariant checks' own
// reductions on the wire, the rows sum to TotalBytesSent, and a world of
// P > 1 sends in every exchange it runs (the hub proposals only with hubs).
func TestWireBytesSumToTraffic(t *testing.T) {
	withInvariants(t)
	rmat, err := gen.RMAT(gen.Graph500RMAT(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range []struct {
		name  string
		g     *graph.Graph
		dhigh int
	}{{"golden", goldenGraph(t), 0}, {"rmat10", rmat, 40}} {
		for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
			for p := 1; p <= 4; p++ {
				name := fmt.Sprintf("%s/%v/p=%d", gr.name, kind, p)
				res, err := Run(gr.g, Options{P: p, Partitioning: kind, DHigh: gr.dhigh})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var sum int64
				for x, v := range res.WireBytes {
					sum += v
					if want := p > 1 && (exchange(x) != exProposals || res.HubCount > 0); (v > 0) != want {
						t.Errorf("%s: %s sent %d bytes", name, exchangeNames[x], v)
					}
				}
				if total := res.CommStats.TotalBytesSent(); sum != total {
					t.Errorf("%s: rows %v sum to %d, traffic %d", name, res.WireBytes, sum, total)
				}
			}
		}
	}
}

// sendLogComm keeps a copy of every payload its rank sends, and its
// destination, in order.
type sendLogComm struct {
	comm.Comm
	sent [][]byte
	dst  []int
	hubs []int32 // the hub labels at the last push (TestHubTrafficFollowsLiveProposals)
}

func (c *sendLogComm) Send(dst, tag int, data []byte) error {
	c.sent = append(c.sent, append([]byte(nil), data...))
	c.dst = append(c.dst, dst)
	return c.Comm.Send(dst, tag, data)
}

// TestHubTrafficFollowsLiveProposals pins what the delegate exchange puts on
// the wire per iteration, on the golden fixture with DHigh = 8 (24 hubs):
//
//   - a rank's proposal frames carry its live proposals for hubs other ranks
//     own, at most 13 bytes each, so a rank with none sends empty frames and
//     an iteration with no live proposal anywhere sends no proposal byte;
//   - every ghost frame a rank sends carries a move section exactly when the
//     rank decided moves, and the section lists exactly those: its hubs
//     whose label changed during the iteration, with their new labels.
//
// After the push that opens an iteration a rank sends the proposal exchange
// and then the ghost swap, one frame per peer each; the push hook clears the
// log and snapshots the hub labels, the iteration hook checks both.
func TestHubTrafficFollowsLiveProposals(t *testing.T) {
	g := goldenGraph(t)
	var mu sync.Mutex
	quiet, moving := 0, 0 // rank-iterations with no live remote proposal / with moves
	testPushHook = func(s *stage, iter int) error {
		lc := s.c.(*sendLogComm)
		lc.sent, lc.dst = lc.sent[:0], lc.dst[:0]
		lc.hubs = lc.hubs[:0]
		for _, h := range s.sg.Hubs {
			lc.hubs = append(lc.hubs, s.comm[h])
		}
		return nil
	}
	testIterHook = func(s *stage, iter int, q float64) error {
		if len(s.sg.Hubs) == 0 {
			return nil
		}
		lc := s.c.(*sendLogComm)
		if len(lc.sent) < 2*(s.p-1) {
			return fmt.Errorf("rank %d iter %d: %d sends after the push", s.rnk, iter, len(lc.sent))
		}
		live, propBytes := 0, 0
		for i, pr := range s.props {
			if pr.improvement > gainEps && !s.owns(s.sg.Hubs[i]) {
				live++
			}
		}
		for _, f := range lc.sent[:s.p-1] {
			propBytes += len(f)
		}
		if propBytes > 13*live {
			return fmt.Errorf("rank %d iter %d: %d proposal bytes for %d live remote proposals", s.rnk, iter, propBytes, live)
		}
		want := wire.NewBuffer(0)
		prev := -1
		for i, h := range s.sg.Hubs {
			if s.owns(h) && s.comm[h] != lc.hubs[i] {
				want.PutStrideDelta(prev, i, 1)
				want.PutVarint(int64(s.comm[h]))
				prev = i
			}
		}
		for _, f := range lc.sent[s.p-1 : 2*(s.p-1)] {
			rd := wire.NewReader(f)
			section := false
			for rd.Remaining() > 0 && !section {
				if section = rd.SkipZero(); !section {
					rd.Uvarint()
					rd.Varint()
				}
			}
			rest := f[len(f)-rd.Remaining():]
			if rd.Err() != nil || section != (prev >= 0) || !bytes.Equal(rest, want.Bytes()) {
				return fmt.Errorf("rank %d iter %d: ghost frame move section %v %x, its moves %x", s.rnk, iter, section, rest, want.Bytes())
			}
		}
		mu.Lock()
		if live == 0 {
			quiet++
		}
		if prev >= 0 {
			moving++
		}
		mu.Unlock()
		return nil
	}
	t.Cleanup(func() { testPushHook, testIterHook = nil, nil })
	for _, p := range []int{2, 3, 4} {
		opt := Options{P: p, DHigh: 8}
		err := comm.RunWorld(p, func(c comm.Comm) error {
			return solveRank(&sendLogComm{Comm: c}, g, opt)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
	if quiet == 0 || moving == 0 {
		t.Fatalf("%d rank-iterations without a live remote proposal, %d with moves: a check never ran", quiet, moving)
	}
	t.Logf("%d rank-iterations without a live remote proposal, %d with moves", quiet, moving)
}
