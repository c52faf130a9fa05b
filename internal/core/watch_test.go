package core

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Tests for the standing aggregate watches (sync.go): the cache a sweep
// reads must be, bit for bit, what the per-iteration pull they replaced
// would have installed; a garbled frame must surface as an error naming
// its source; and the traffic of an incremental batch must stay below the
// pull's.

// fetchCommunityInfo is the per-iteration pull the watches replaced, kept
// as the oracle (the merge_seed_test.go idiom): every rank requests every
// community a local vertex references from its owner, the owners answer
// from the authoritative tables, and the answers are installed over the
// cache. Serial and allocating; it shares no scratch with the push.
func (s *stage) fetchCommunityInfo() error {
	reqs := referencedCommunities(s)
	out := make([][]byte, s.p)
	for r := range out {
		b := wire.NewBuffer(0)
		b.PutInts(reqs[r])
		out[r] = b.Bytes()
	}
	in, err := comm.Alltoallv(s.c, out)
	if err != nil {
		return err
	}
	replies := make([][]byte, s.p)
	for r := range replies {
		b := wire.NewBuffer(0)
		rd := wire.NewReader(in[r])
		for _, c := range rd.Ints() {
			b.PutVarint(s.ownTot[c])
			b.PutVarint(int64(s.ownSize[c]))
		}
		if err := rd.Err(); err != nil {
			return err
		}
		replies[r] = b.Bytes()
	}
	in, err = comm.Alltoallv(s.c, replies)
	if err != nil {
		return err
	}
	for r := range in {
		rd := wire.NewReader(in[r])
		for _, c := range reqs[r] {
			s.tot[c] = rd.Varint()
			s.size[c] = int32(rd.Varint())
			s.cached[c] = true
		}
		if err := rd.Err(); err != nil {
			return err
		}
	}
	return nil
}

// referencedCommunities returns the communities a local vertex — owned,
// hub or ghost — references, grouped by owning rank, each group ascending
// and free of repeats: the ids the merge's dense-ID lookup asks each owner
// for, and the pull oracle's request set.
func referencedCommunities(s *stage) [][]int {
	reqs := make([][]int, s.p)
	for _, vs := range [][]int{s.sg.Owned, s.sg.Hubs, s.sg.Ghosts} {
		for _, v := range vs {
			c := int(s.comm[v])
			o := partition.Owner(c, s.p)
			reqs[o] = append(reqs[o], c)
		}
	}
	for r := range reqs {
		slices.Sort(reqs[r])
		reqs[r] = slices.Compact(reqs[r])
	}
	return reqs
}

// cacheCoherenceHook is the testPushHook of the coherence tests: right
// after a push, no community a local vertex references may be uncached, and
// pulling every referenced community from its owner must change no byte of
// the cache — i.e. each cached (Σtot, size) already equals the owner's
// ownTot/ownSize. No delta may be pending either: the sized rule reads a
// community's iteration-start count as size − deltaN (snapSize), which is
// the owner's value only if deltaN starts every sweep at zero.
func cacheCoherenceHook(s *stage, iter int) error {
	if len(s.deltaTouched) > 0 {
		return fmt.Errorf("iter %d rank %d: %d deltas pending at the push", iter, s.rnk, len(s.deltaTouched))
	}
	for _, cs := range referencedCommunities(s) {
		for _, c := range cs {
			if !s.cached[c] || !s.watched[c] {
				return fmt.Errorf("iter %d rank %d: referenced community %d cached=%v watched=%v",
					iter, s.rnk, c, s.cached[c], s.watched[c])
			}
		}
	}
	tot := append([]int64(nil), s.tot...)
	size := append([]int32(nil), s.size...)
	cached := append([]bool(nil), s.cached...)
	if err := s.fetchCommunityInfo(); err != nil {
		return err
	}
	for c := range tot {
		if tot[c] != s.tot[c] || size[c] != s.size[c] || cached[c] != s.cached[c] {
			return fmt.Errorf("iter %d rank %d community %d: pushed cache (%d, %d, %v), the owner holds (%d, %d)",
				iter, s.rnk, c, tot[c], size[c], cached[c], s.tot[c], s.size[c])
		}
	}
	return nil
}

func withCoherenceHook(t *testing.T) {
	t.Helper()
	withInvariants(t)
	testPushHook = cacheCoherenceHook
	t.Cleanup(func() { testPushHook = nil })
}

// TestCacheCoherence audits every push of every stage of the golden
// fixture's solve over {delegate, delegate with hubs, 1d} × P × heuristic,
// on a clean transport and under the seeded benign chaos schedules.
func TestCacheCoherence(t *testing.T) {
	withCoherenceHook(t)
	g := goldenGraph(t)
	for _, part := range []struct {
		kind  partition.Kind
		dhigh int
	}{{partition.Delegate, 0}, {partition.Delegate, 8}, {partition.OneD, 0}} {
		for _, p := range []int{2, 3, 4} {
			for _, h := range []Heuristic{HeuristicSized, HeuristicEnhanced, HeuristicSimple} {
				opt := Options{P: p, Partitioning: part.kind, DHigh: part.dhigh, Heuristic: h}
				name := fmt.Sprintf("%v/dhigh=%d/p=%d/%v", part.kind, part.dhigh, p, h)
				if _, err := Run(g, opt); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for seed := int64(1); seed <= 3; seed++ {
					err := comm.RunWorldChaos(p, benignCoreChaos(seed), func(c comm.Comm) error {
						return solveRank(c, g, opt)
					})
					if err != nil {
						t.Fatalf("%s chaos seed %d: %v", name, seed, err)
					}
				}
			}
		}
	}
}

// TestCacheCoherenceSession audits the resident stage, whose watches and
// cache outlive the batches: a 24-batch update stream with the drift
// fallback on, which must fire at least once (a fresh install re-registers
// everything).
func TestCacheCoherenceSession(t *testing.T) {
	withCoherenceHook(t)
	g := goldenGraph(t)
	for _, p := range []int{2, 4} {
		opt := Options{P: p, DHigh: 8}
		run := runSessionBatches(t, g, opt, randomStream(g, 17, 24, 6, 0.4), 0.02)
		fell := 0
		for _, f := range run.Fallbacks {
			if f {
				fell++
			}
		}
		if fell == 0 {
			t.Fatalf("p=%d: no drift-triggered full solve in %d batches; lower the drift threshold", p, len(run.Results))
		}
	}
}

// TestPullOracleOnLFR runs the retained pull after the first push of every
// stage of an LFR solve (and after every later push): it must change no
// cache byte.
func TestPullOracleOnLFR(t *testing.T) {
	withCoherenceHook(t)
	g, _, err := gen.LFR(gen.DefaultLFR(2000, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterLevels < 2 {
		t.Fatalf("only %d stage ran; the oracle never saw a merged stage", res.OuterLevels)
	}
}

// ---------------------------------------------------------------------------
// Garbled frames.

// tamperComm hands a chosen payload to the caller in place of a frame
// received from one source, once armed: the frame after the first skip ones
// from that source. The real frame is consumed, so the transport's matching
// stays intact.
type tamperComm struct {
	comm.Comm
	mu   sync.Mutex
	src  int
	skip int
	fake []byte // nil = disarmed
}

func (c *tamperComm) arm(src, skip int, fake []byte) {
	c.mu.Lock()
	c.src, c.skip, c.fake = src, skip, fake
	c.mu.Unlock()
}

func (c *tamperComm) Recv(src, tag int) ([]byte, error) {
	got, err := c.Comm.Recv(src, tag)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && c.fake != nil && src == c.src {
		if c.skip > 0 {
			c.skip--
		} else {
			got, c.fake = c.fake, nil
		}
	}
	return got, err
}

// TestGarbledFrames injects one bad frame per decoder of the per-iteration
// exchanges, of the owner lookups (both legs), of the merge's community
// count and arc exchange and of Session.install's representative exchange
// and label lookup — an id past the end of the dense arrays, a repeated id,
// a length or count past what the sender may send, a vertex, label or hub
// outside what the sender may address, an answer outside [0, bound), a
// truncated record, a record count the frame cannot hold, trailing bytes, a
// scale byte past wire.MaxScale or a weight past partition.MaxWeight2 once
// scaled back (those wrap wire.ErrScale) —
// into rank 0's receive path from rank 1. Every one must come back from the
// exchange as an error naming rank 1: no panic, no write.
// (A community id of another rank's residue cannot be written down at all:
// the stride-delta streams — the push, the flush's watches and the owner
// lookups' requests — only reach the addressed owner's slots.) At the
// parent commit an out-of-range id panicked inside the rank goroutine (index
// out of range in flushDeltas, ghostSwap and the answer kernel) and a
// foreign one was applied silently.
func TestGarbledFrames(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 91))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	layout, err := partition.Build(g, partition.Options{P: p, Kind: partition.Delegate, DHigh: 20})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: p, DHigh: 20}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	enc := func(fill func(b *wire.Buffer)) []byte {
		b := wire.NewBuffer(0)
		fill(b)
		return b.Bytes()
	}
	nh := len(layout.Hubs)
	// hubOf returns the index of the first hub whose owner passes keep.
	hubOf := func(keep func(owner int) bool) uint64 {
		for i, h := range layout.Hubs {
			if keep(partition.Owner(h, p)) {
				return uint64(i)
			}
		}
		t.Fatal("fixture has no hub with the wanted owner")
		return 0
	}
	ownedBy := func(r int) func(int) bool { return func(o int) bool { return o == r } }
	notOwnedBy := func(r int) func(int) bool { return func(o int) bool { return o != r } }
	// proposal is a live record for hub index i as the first of its frame.
	proposal := func(b *wire.Buffer, i uint64, target int) {
		b.PutUvarint(i + 1)
		b.PutF64(1)
		b.PutVarint(int64(target))
	}
	// moves opens the move section of a ghost frame that carries no ghost.
	moves := func(b *wire.Buffer, i uint64) {
		b.PutUvarint(0)
		b.PutUvarint(i + 1)
	}
	// denseReply is rank 1's dense-ID reply to rank 0's merge request: one
	// answer delta per community asked, all zero but the last, which takes
	// the running answer far past the coarse vertex count.
	denseReply := func(s *stage) []byte {
		k := len(referencedCommunities(s)[1])
		if k == 0 {
			t.Error("rank 0 references no community of rank 1")
		}
		return enc(func(b *wire.Buffer) {
			for i := 1; i < k; i++ {
				b.PutVarint(0)
			}
			b.PutVarint(1 << 30)
		})
	}
	// Frames as rank 1 would address them to rank 0 (p = 4). A push or
	// flush frame opens with its weights' scale byte.
	cases := []struct {
		name  string
		step  string // the exchange the frame is injected into
		frame []byte
	}{
		{"push/out-of-range", "push", enc(func(b *wire.Buffer) {
			b.PutScale(0)
			b.PutUvarint(uint64(n)) // 1 + 4·(n−1) ≥ n
			b.PutVarint(1)
			b.PutVarint(1)
		})},
		{"push/repeated-id", "push", enc(func(b *wire.Buffer) {
			b.PutScale(0)
			b.PutUvarint(0)
			b.PutVarint(1)
			b.PutVarint(1)
		})},
		{"push/truncated", "push", enc(func(b *wire.Buffer) {
			b.PutScale(0)
			b.PutUvarint(1)
			b.PutVarint(7)
		})},
		{"flush/delta-out-of-range", "flush", enc(func(b *wire.Buffer) {
			b.PutScale(0)
			b.PutUvarint(uint64(n))
			b.PutVarint(1)
			b.PutVarint(1)
		})},
		{"flush/delta-truncated", "flush", enc(func(b *wire.Buffer) {
			b.PutScale(0)
			b.PutUvarint(1)
			b.PutVarint(7)
		})},
		{"flush/watch-out-of-range", "flush", enc(func(b *wire.Buffer) {
			b.PutScale(0)
			b.PutUvarint(0)
			b.PutUvarint(uint64(n))
		})},
		{"flush/watch-repeated", "flush", enc(func(b *wire.Buffer) {
			b.PutScale(0)
			b.PutUvarint(0)
			b.PutUvarint(1)
			b.PutUvarint(0)
		})},
		{"ghost/out-of-range", "ghost", enc(func(b *wire.Buffer) {
			b.PutUvarint(uint64(n) + 1)
			b.PutVarint(0)
		})},
		{"ghost/foreign-vertex", "ghost", enc(func(b *wire.Buffer) {
			b.PutUvarint(3) // vertex 2: owned by rank 2, not by the sender
			b.PutVarint(0)
		})},
		{"ghost/label-out-of-range", "ghost", enc(func(b *wire.Buffer) {
			b.PutUvarint(2) // vertex 1, the sender's own
			b.PutVarint(int64(n))
		})},
		// Proposal frames: (hub-index delta, improvement, target) records for
		// the hubs the receiver owns.
		{"hub/index-out-of-range", "hub", enc(func(b *wire.Buffer) { proposal(b, uint64(nh), 0) })},
		{"hub/foreign-hub", "hub", enc(func(b *wire.Buffer) { proposal(b, hubOf(notOwnedBy(0)), 0) })},
		{"hub/repeated-index", "hub", enc(func(b *wire.Buffer) {
			proposal(b, hubOf(ownedBy(0)), 0)
			b.PutUvarint(0)
			b.PutF64(1)
			b.PutVarint(0)
		})},
		{"hub/bad-target", "hub", enc(func(b *wire.Buffer) { proposal(b, hubOf(ownedBy(0)), n) })},
		{"hub/short-frame", "hub", enc(func(b *wire.Buffer) {
			b.PutUvarint(hubOf(ownedBy(0)) + 1)
			b.PutVarint(1) // one byte where the improvement's eight belong
		})},
		// The move section of a ghost frame: a zero byte, then (hub-index
		// delta, target) records for the hubs the sender owns.
		{"move/foreign-hub", "ghost", enc(func(b *wire.Buffer) {
			moves(b, hubOf(notOwnedBy(1)))
			b.PutVarint(0)
		})},
		{"move/bad-target", "ghost", enc(func(b *wire.Buffer) {
			moves(b, hubOf(ownedBy(1)))
			b.PutVarint(int64(n))
		})},
		{"move/index-out-of-range", "ghost", enc(func(b *wire.Buffer) {
			moves(b, uint64(nh))
			b.PutVarint(0)
		})},
		{"move/truncated", "ghost", enc(func(b *wire.Buffer) { moves(b, hubOf(ownedBy(1))) })},
		// Merge arc frames: a record count, the weights' scale byte, then
		// per-row groups of [row delta, cv count, (cv delta, weight) ...].
		// Rank 0 owns coarse row 0 (vertex 0), and the coarse graph has
		// fewer than n vertices.
		{"merge/truncated", "merge", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutScale(0)
			b.PutUvarint(1)
		})},
		{"merge/repeated-row", "merge", enc(func(b *wire.Buffer) {
			b.PutUvarint(2)
			b.PutScale(0)
			for _, row := range []uint64{1, 0} {
				b.PutUvarint(row)
				b.PutUvarint(1)
				b.PutUvarint(1)
				b.PutUvarint(1)
			}
		})},
		{"merge/cv-out-of-range", "merge", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutScale(0)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(uint64(n) + 1) // cv n
			b.PutUvarint(1)
		})},
		{"merge/count-past-frame", "merge", enc(func(b *wire.Buffer) {
			b.PutUvarint(3)
			b.PutScale(0)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(1)
		})},
		{"merge/trailing-bytes", "merge", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutScale(0)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(7)
		})},
		// Scaled weights: a scale byte past wire.MaxScale, and a weight past
		// partition.MaxWeight2 or past int64 once shifted back, in each of
		// the three frames that carry weights.
		{"push/scale-past-max", "push", enc(func(b *wire.Buffer) {
			b.PutScale(wire.MaxScale + 1)
			b.PutUvarint(1)
			b.PutVarint(1)
			b.PutVarint(1)
		})},
		{"push/weight-past-max", "push", enc(func(b *wire.Buffer) {
			b.PutScale(20)
			b.PutUvarint(1)
			b.PutVarint(1<<42 + 1)
			b.PutVarint(1)
		})},
		{"push/weight-overflows", "push", enc(func(b *wire.Buffer) {
			b.PutScale(wire.MaxScale)
			b.PutUvarint(1)
			b.PutVarint(3)
			b.PutVarint(1)
		})},
		{"flush/scale-past-max", "flush", enc(func(b *wire.Buffer) {
			b.PutScale(255)
			b.PutUvarint(1)
			b.PutVarint(1)
			b.PutVarint(1)
		})},
		{"flush/weight-past-max", "flush", enc(func(b *wire.Buffer) {
			b.PutScale(40)
			b.PutUvarint(1)
			b.PutVarint(-(1<<22 + 1))
			b.PutVarint(-1)
		})},
		{"merge/scale-past-max", "merge", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutScale(wire.MaxScale + 1)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(1)
		})},
		{"merge/weight-past-max", "merge", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutScale(1)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(1<<61 + 1)
		})},
		// Owner lookups: a request is an id count, then each id as its row
		// delta (rows id/p, from row −1); a reply one zigzag answer delta per
		// id asked (from 0). Rank 0 owns rows 0–99, and asks rank 1 for
		// vertices 1 and 5: the queries are 0–3, 5 and 1 again.
		{"resolve/request-out-of-range", "request", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutUvarint(101) // row 100: vertex 400 = n
		})},
		{"resolve/request-repeated-id", "request", enc(func(b *wire.Buffer) {
			b.PutUvarint(2)
			b.PutUvarint(1)
			b.PutUvarint(0)
		})},
		{"resolve/request-truncated", "request", enc(func(b *wire.Buffer) {
			b.PutUvarint(2)
			b.PutUvarint(1)
		})},
		{"resolve/request-trailing", "request", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutUvarint(1)
			b.PutUvarint(7)
		})},
		{"resolve/reply-truncated", "reply", enc(func(b *wire.Buffer) { b.PutVarint(1) })},
		{"resolve/reply-trailing", "reply", enc(func(b *wire.Buffer) {
			b.PutVarint(1)
			b.PutVarint(1)
			b.PutVarint(1)
		})},
		{"resolve/reply-out-of-range", "reply", enc(func(b *wire.Buffer) {
			b.PutVarint(int64(n) - 1)
			b.PutVarint(1) // answer n
		})},
		{"resolve/reply-negative", "reply", enc(func(b *wire.Buffer) {
			b.PutVarint(3)
			b.PutVarint(-4) // answer −1
		})},
		{"merge/dense-reply-out-of-range", "dense", nil}, // denseReply
		// A request count of 2⁶³ ends where the frame does, in an error.
		{"resolve/request-huge-length", "request", enc(func(b *wire.Buffer) { b.PutUvarint(1 << 63) })},
		// The merge's community count: one uvarint, at most the sender's
		// owned-slot count (100 of the 400 stage-1 communities for rank 1).
		{"merge/count-huge", "count", enc(func(b *wire.Buffer) { b.PutUvarint(1 << 50) })},
		{"merge/count-past-slots", "count", enc(func(b *wire.Buffer) { b.PutUvarint(101) })},
		{"merge/count-empty", "count", []byte{}},
		{"merge/count-trailing", "count", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutUvarint(1)
		})},
		// Session.install's fourth frame from rank 1, the request of its
		// lookup of held hub and ghost labels: an id far past n, where the
		// label lookup would index with it.
		{"install/hub-index-out-of-range", "install", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutUvarint(1 << 20)
		})},
		// install's first frame from rank 1, the representative exchange:
		// (label, vertex) varint pairs for labels the receiver owns.
		{"install/rep-foreign-label", "install-rep", enc(func(b *wire.Buffer) {
			b.PutVarint(1) // label 1: rank 1's own
			b.PutVarint(0)
		})},
		{"install/rep-out-of-range", "install-rep", enc(func(b *wire.Buffer) {
			b.PutVarint(int64(n)) // label n ≡ 0 (mod 4)
			b.PutVarint(0)
		})},
		{"install/rep-vertex-out-of-range", "install-rep", enc(func(b *wire.Buffer) {
			b.PutVarint(0)
			b.PutVarint(int64(n))
		})},
		{"install/rep-truncated", "install-rep", enc(func(b *wire.Buffer) { b.PutVarint(0) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rank0 error
			// The other ranks' errors are the cascade of rank 0 leaving the
			// world early; of the world's error only a panic is examined.
			world := comm.RunWorld(p, func(c comm.Comm) error {
				tc0 := &tamperComm{Comm: c}
				s := newStage(tc0, layout.Parts[c.Rank()], opt)
				run := func() error {
					switch tc.step {
					case "merge", "dense", "count":
						if _, err := s.clusterNew(); err != nil {
							return err
						}
						// Rank 1's first frame to rank 0 in a merge is its
						// community count (the Allgather), then come the
						// request and reply legs of the dense-ID lookup.
						switch {
						case c.Rank() != 0:
						case tc.step == "merge":
							// Pass the count and both legs; garble the arcs.
							tc0.arm(1, 3, tc.frame)
						case tc.step == "dense":
							tc0.arm(1, 2, denseReply(s))
						default:
							tc0.arm(1, 0, tc.frame)
						}
						_, _, err := s.merge()
						return err
					case "install", "install-rep":
						sess, err := NewSession(tc0, layout.Parts[c.Rank()], opt)
						if err != nil {
							return err
						}
						if sess.out, err = sess.solve(); err != nil {
							return err
						}
						// install's frames from rank 1: the representative
						// exchange, then both legs of the representative
						// lookup, then the held-label lookup's request.
						if c.Rank() == 0 {
							skip := 3
							if tc.step == "install-rep" {
								skip = 0
							}
							tc0.arm(1, skip, tc.frame)
						}
						return sess.install()
					case "request", "reply":
						if c.Rank() == 0 {
							skip := 0
							if tc.step == "reply" {
								skip = 1
							}
							tc0.arm(1, skip, tc.frame)
						}
						_, err := s.resolveQueries(nil, []int{0, 1, 2, 3, 5, 1}, n, func(x int) int { return int(s.comm[x]) })
						return err
					}
					if err := s.registerWatches(); err != nil {
						return err
					}
					if tc.step == "push" && c.Rank() == 0 {
						tc0.arm(1, 0, tc.frame)
					}
					if err := s.pushAggregates(); err != nil {
						return err
					}
					props, _ := s.sweep()
					if tc.step == "hub" && c.Rank() == 0 {
						tc0.arm(1, 0, tc.frame)
					}
					if _, err := s.delegateExchange(props); err != nil {
						return err
					}
					if tc.step == "ghost" && c.Rank() == 0 {
						tc0.arm(1, 0, tc.frame)
					}
					if err := s.ghostSwap(); err != nil {
						return err
					}
					if tc.step == "flush" && c.Rank() == 0 {
						tc0.arm(1, 0, tc.frame)
					}
					return s.flushDeltas()
				}
				err := run()
				if c.Rank() == 0 {
					rank0 = err
				}
				return err
			})
			if world != nil && strings.Contains(world.Error(), "panicked") {
				t.Fatalf("a rank panicked: %v", world)
			}
			if rank0 == nil {
				t.Fatal("the garbled frame was accepted")
			}
			want := "from rank 1"
			switch tc.step {
			case "merge":
				want = "merge arc frame from rank 1"
			case "count":
				want = "merge count frame from rank 1"
			case "request", "install":
				want = "resolve request frame from rank 1"
			case "install-rep":
				want = "representative frame from rank 1"
			case "reply", "dense":
				want = "resolve reply frame from rank 1"
			}
			if !strings.Contains(rank0.Error(), want) {
				t.Fatalf("want an error naming %q, got: %v", want, rank0)
			}
			if strings.Contains(tc.name, "scale") || strings.Contains(tc.name, "weight") {
				if !errors.Is(rank0, wire.ErrScale) {
					t.Fatalf("want a wire.ErrScale, got: %v", rank0)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Traffic.

// TestIncrementalBatchTraffic pins one incremental batch on the resident
// stage: a 4-op ApplyUpdates on LFR n=20000, mu=0.3 at P=4. Where the batch
// ends up, and so how many iterations it runs, follows the state the
// initial solve landed in; what is pinned is what an iteration costs.
//
// The pinned row sets DHigh to the old default, max(P, 4·arcs/n), so the
// layout has hubs and the hub exchange is on the wire. The default
// threshold delegates nothing on this graph (1D is within 10% of balance),
// so its row drops the hub-proposal exchange and must cost no more.
//
// Messages per rank: an iteration sends the three exchanges and the
// IterStats record of TestIterationSingleAllreduce (11) plus, with hubs,
// the hub-proposal exchange (p−1), and the batch around them sends the
// new-ghost query and reply, the ledger flush and the touched-count sum. The
// seeds come with the batch (the serving driver walks its ledger), so
// seeding sends nothing.
//
// Work units: while the aggregates were pulled, synchronisation cost
// 205/221/198/187 units per iteration on ranks 0–3 of the pinned row, three
// per referenced community, whatever the batch touched. With watches it
// follows what the batch's moves dirtied (each dirty community costs its
// delta records plus one push record per watcher) and must stay under half
// of that.
//
// "Other" work units also hold what a batch pays once because it rewrote
// arcs: the reverse-index rebuild and the full modularity scan that reseeds
// the incremental terms; both are subtracted here so the pin sees the
// synchronisation alone.
func TestIncrementalBatchTraffic(t *testing.T) {
	pullSyncPerIter := [4]int64{205, 221, 198, 187}
	g, _, err := gen.LFR(gen.DefaultLFR(20000, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	const perBatch = 3*(p-1) + 2
	for _, row := range []struct {
		name    string
		dhigh   int
		hubs    bool
		perIter int64
	}{
		{"old-default", max(p, 4*int(g.NumArcs())/g.NumVertices()), true, 4*(p-1) + 2},
		{"default", 0, false, 3*(p-1) + 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			opt := Options{P: p, DHigh: row.dhigh}
			layout, err := partition.Build(g, opt.PartitionOptions())
			if err != nil {
				t.Fatal(err)
			}
			if hubs := len(layout.Hubs) > 0; hubs != row.hubs {
				t.Fatalf("fixture has %d hubs at DHigh %d; want hubs: %v", len(layout.Hubs), layout.DHigh, row.hubs)
			}
			batches := randomStream(g, 5, 1, 4, 0.3)
			batch, seeds := batches[0], replaySeeds(t, g, batches, 2)[0]
			msgs := make([]int64, p)
			syncUnits := make([]int64, p)
			iters := make([]int, p)
			err = comm.RunWorld(p, func(c comm.Comm) error {
				r := c.Rank()
				ses, err := NewSession(c, layout.Parts[r], opt)
				if err != nil {
					return err
				}
				defer ses.Close()
				if err := ses.Solve(); err != nil {
					return err
				}
				before := c.Stats().Snapshot()
				other := ses.st.workPhase[trace.Other]
				res, err := ses.ApplyUpdates(batch, seeds)
				if err != nil {
					return err
				}
				msgs[r] = c.Stats().Snapshot().MsgsSent - before.MsgsSent
				iters[r] = res.Iters
				arcs := int64(0)
				for _, adj := range ses.sg.AdjOwned {
					arcs += int64(len(adj))
				}
				for _, adj := range ses.sg.AdjHub {
					arcs += int64(len(adj))
				}
				// The reverse-index rebuild (2 per arc) and the modularity reseed
				// (1 per arc and per owned community slot).
				syncUnits[r] = ses.st.workPhase[trace.Other] - other - 3*arcs - int64(ses.n/p)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				if want := perBatch + int64(iters[r])*row.perIter; msgs[r] != want {
					t.Errorf("rank %d sent %d messages over %d iterations, want %d + %d per iteration = %d", r, msgs[r], iters[r], perBatch, row.perIter, want)
				}
				if per := syncUnits[r] / int64(iters[r]); 2*per > pullSyncPerIter[r] {
					t.Errorf("rank %d: %d synchronisation work units per iteration over %d iterations; the pull spent %d", r, per, iters[r], pullSyncPerIter[r])
				}
			}
			t.Logf("batch: messages per rank %v, sync units per rank %v over %d iterations", msgs, syncUnits, iters[0])
		})
	}
}

// lastFrameComm remembers the last payload received from every source.
// Right after a push that is the push frame: each exchange delivers one
// frame per peer, and the push is the newest.
type lastFrameComm struct {
	comm.Comm
	mu   sync.Mutex
	last [][]byte
}

func (c *lastFrameComm) Recv(src, tag int) ([]byte, error) {
	got, err := c.Comm.Recv(src, tag)
	if err == nil {
		c.mu.Lock()
		c.last[src] = append(c.last[src][:0], got...)
		c.mu.Unlock()
	}
	return got, err
}

// pushUsefulness solves g and returns, over every push of every stage and
// every rank, the records that crossed the wire and how many of them named
// a community the receiver referenced at that moment. The rest went to
// watchers that moved on (a watch is never withdrawn).
func pushUsefulness(t *testing.T, g *graph.Graph, opt Options) (pushed, useful int64) {
	t.Helper()
	var mu sync.Mutex
	testPushHook = func(s *stage, iter int) error {
		lc := s.c.(*lastFrameComm)
		need := make(map[int]bool)
		for _, cs := range referencedCommunities(s) {
			for _, c := range cs {
				need[c] = true
			}
		}
		var np, nu int64
		for src := 0; src < s.p; src++ {
			if src == s.rnk {
				continue
			}
			rd := wire.NewReader(lc.last[src])
			prev := src - s.p
			sc := rd.Scale()
			for rd.Remaining() > 0 {
				c := rd.StrideDelta(prev, s.p, s.n)
				rd.ScaledVarint(sc, partition.MaxWeight2)
				rd.Varint()
				if err := rd.Err(); err != nil {
					return fmt.Errorf("rank %d: last frame from rank %d is no push frame: %w", s.rnk, src, err)
				}
				np++
				if need[c] {
					nu++
				}
				prev = c
			}
		}
		mu.Lock()
		pushed += np
		useful += nu
		mu.Unlock()
		return nil
	}
	defer func() { testPushHook = nil }()
	err := comm.RunWorld(opt.P, func(c comm.Comm) error {
		return solveRank(&lastFrameComm{Comm: c, last: make([][]byte, opt.P)}, g, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return pushed, useful
}

// TestPushUsefulness reports the useful/pushed ratio quoted in
// docs/PERFORMANCE.md. The default run uses small graphs and only checks
// the accounting; WATCH_MEASURE=1 runs the two graphs the document quotes
// (LFR n=60000 mu=0.3 seed 1, R-MAT scale 16 seed 1).
func TestPushUsefulness(t *testing.T) {
	type tc struct {
		name string
		g    func() (*graph.Graph, error)
	}
	lfr := func(n int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			g, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 1))
			return g, err
		}
	}
	rmat := func(scale int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) { return gen.RMAT(gen.Graph500RMAT(scale, 1)) }
	}
	cases := []tc{{"lfr-2000", lfr(2000)}, {"rmat-10", rmat(10)}}
	if os.Getenv("WATCH_MEASURE") != "" {
		cases = []tc{{"lfr-60000", lfr(60000)}, {"rmat-16", rmat(16)}}
	}
	for _, c := range cases {
		g, err := c.g()
		if err != nil {
			t.Fatal(err)
		}
		pushed, useful := pushUsefulness(t, g, Options{P: 4})
		if pushed == 0 || useful == 0 || useful > pushed {
			t.Fatalf("%s: pushed %d, useful %d", c.name, pushed, useful)
		}
		t.Logf("%s: %d records pushed over the wire, %d to a rank that references the community (useful/pushed = %.3f)",
			c.name, pushed, useful, float64(useful)/float64(pushed))
	}
}
