package core

import (
	"fmt"
	"math"
	"os"
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
// cache. Serial and allocating; it shares no scratch with the push beyond
// neededCommunities.
func (s *stage) fetchCommunityInfo() error {
	reqs := s.neededCommunities()
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
			b.PutF64(s.ownTot[c])
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
			s.tot[c] = rd.F64()
			s.size[c] = int32(rd.Varint())
			s.cached[c] = true
		}
		if err := rd.Err(); err != nil {
			return err
		}
	}
	return nil
}

// cacheCoherenceHook is the testPushHook of the coherence tests: right
// after a push, no community a local vertex references may be uncached, and
// pulling every referenced community from its owner must change no byte of
// the cache — i.e. each cached (Σtot, size) already equals the owner's
// ownTot/ownSize to the bit.
func cacheCoherenceHook(s *stage, iter int) error {
	for _, cs := range s.neededCommunities() {
		for _, c := range cs {
			if !s.cached[c] || !s.watched[c] {
				return fmt.Errorf("iter %d rank %d: referenced community %d cached=%v watched=%v",
					iter, s.rnk, c, s.cached[c], s.watched[c])
			}
		}
	}
	tot := append([]float64(nil), s.tot...)
	size := append([]int32(nil), s.size...)
	cached := append([]bool(nil), s.cached...)
	if err := s.fetchCommunityInfo(); err != nil {
		return err
	}
	for c := range tot {
		if math.Float64bits(tot[c]) != math.Float64bits(s.tot[c]) || size[c] != s.size[c] || cached[c] != s.cached[c] {
			return fmt.Errorf("iter %d rank %d community %d: pushed cache (%x, %d, %v), the owner holds (%x, %d)",
				iter, s.rnk, c, math.Float64bits(tot[c]), size[c], cached[c], math.Float64bits(s.tot[c]), s.size[c])
		}
	}
	return nil
}

func withCoherenceHook(t *testing.T) {
	t.Helper()
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
			for _, h := range []Heuristic{HeuristicEnhanced, HeuristicSimple, HeuristicStrict} {
				opt := Options{P: p, Partitioning: part.kind, DHigh: part.dhigh, Heuristic: h}
				name := fmt.Sprintf("%v/dhigh=%d/p=%d/%v", part.kind, part.dhigh, p, h)
				if _, err := Run(g, opt); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for seed := int64(1); seed <= 3; seed++ {
					err := comm.RunWorldChaos(p, benignCoreChaos(seed), func(c comm.Comm) error {
						_, err := RunRank(c, g, opt)
						return err
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
		opt := Options{P: p, DHigh: 8, DriftQ: 0.02}
		run := runSessionBatches(t, g, opt, randomStream(g, 17, 24, 6, 0.4), true)
		fell := 0
		for _, f := range run.Fallbacks {
			if f {
				fell++
			}
		}
		if fell == 0 {
			t.Fatalf("p=%d: no drift-triggered full solve in %d batches; lower DriftQ", p, len(run.Results))
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

// tamperComm hands a chosen payload to the caller in place of the next
// frame received from one source, once armed. The real frame is consumed,
// so the transport's matching stays intact.
type tamperComm struct {
	comm.Comm
	mu   sync.Mutex
	src  int
	fake []byte // nil = disarmed
}

func (c *tamperComm) arm(src int, fake []byte) {
	c.mu.Lock()
	c.src, c.fake = src, fake
	c.mu.Unlock()
}

func (c *tamperComm) Recv(src, tag int) ([]byte, error) {
	got, err := c.Comm.Recv(src, tag)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && c.fake != nil && src == c.src {
		got, c.fake = c.fake, nil
	}
	return got, err
}

// TestGarbledFrames injects one bad frame per decoder of the per-iteration
// exchanges — an id past the end of the dense arrays, a repeated id, a
// vertex the sender does not own, a truncated record, a hub-proposal vector
// of the wrong length — into rank 0's
// receive path from rank 1. Every one must come back from the exchange as
// an error naming rank 1: no panic, no write. (A community id of another
// rank's residue cannot be written down at all: the stride-delta streams
// only reach the addressed owner's slots.) At the parent commit an
// out-of-range id panicked inside the rank goroutine (index out of range in
// flushDeltas, ghostSwap and the answer kernel) and a foreign one was
// applied silently.
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
	if nh == 0 {
		t.Fatal("fixture has no hubs; the hub-proposal rows would skip the reduction")
	}
	// hubFrame is a proposal vector of the given record count whose last
	// record proposes target with a winning improvement.
	hubFrame := func(records, target int) []byte {
		return enc(func(b *wire.Buffer) {
			for i := 0; i < records; i++ {
				b.PutF64(1)
				if i == records-1 {
					b.PutVarint(int64(target))
				} else {
					b.PutVarint(0)
				}
			}
		})
	}
	// Frames as rank 1 would address them to rank 0 (p = 4).
	cases := []struct {
		name  string
		step  string // the exchange the frame is injected into
		frame []byte
	}{
		{"push/out-of-range", "push", enc(func(b *wire.Buffer) {
			b.PutUvarint(uint64(n)) // 1 + 4·(n−1) ≥ n
			b.PutF64(1)
			b.PutVarint(1)
		})},
		{"push/repeated-id", "push", enc(func(b *wire.Buffer) {
			b.PutUvarint(0)
			b.PutF64(1)
			b.PutVarint(1)
		})},
		{"push/truncated", "push", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutU32(7)
		})},
		{"flush/delta-out-of-range", "flush", enc(func(b *wire.Buffer) {
			b.PutUvarint(uint64(n))
			b.PutF64(1)
			b.PutVarint(1)
		})},
		{"flush/delta-truncated", "flush", enc(func(b *wire.Buffer) {
			b.PutUvarint(1)
			b.PutU32(7)
		})},
		{"flush/watch-out-of-range", "flush", enc(func(b *wire.Buffer) {
			b.PutUvarint(0)
			b.PutUvarint(uint64(n))
		})},
		{"flush/watch-repeated", "flush", enc(func(b *wire.Buffer) {
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
		// Hub-proposal vectors, one (improvement, target) record per hub. The
		// reduction's combine used to read a short frame's missing records
		// as (0, 0), ignore a long frame's tail, and leave a bad target to a
		// check that did not name the sender.
		{"hub/short-frame", "hub", hubFrame(nh-1, 0)},
		{"hub/long-frame", "hub", hubFrame(nh+1, 0)},
		{"hub/bad-target", "hub", hubFrame(nh, n)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rank0 error
			// The other ranks' errors are the cascade of rank 0 leaving the
			// world early; of the world's error only a panic is examined.
			world := comm.RunWorld(p, func(c comm.Comm) error {
				tc0 := &tamperComm{Comm: c}
				s := newStage(tc0, layout.Parts[c.Rank()], opt)
				defer s.close()
				run := func() error {
					if err := s.registerWatches(); err != nil {
						return err
					}
					if tc.step == "push" && c.Rank() == 0 {
						tc0.arm(1, tc.frame)
					}
					if err := s.pushAggregates(); err != nil {
						return err
					}
					props, _ := s.sweep()
					if tc.step == "hub" && c.Rank() == 0 {
						tc0.arm(1, tc.frame)
					}
					if _, err := s.delegateExchange(props); err != nil {
						return err
					}
					if tc.step == "ghost" && c.Rank() == 0 {
						tc0.arm(1, tc.frame)
					}
					if err := s.ghostSwap(); err != nil {
						return err
					}
					if tc.step == "flush" && c.Rank() == 0 {
						tc0.arm(1, tc.frame)
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
			if !strings.Contains(rank0.Error(), "from rank 1") {
				t.Fatalf("want an error naming rank 1, got: %v", rank0)
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
// Messages per rank: an iteration sends the three exchanges and the
// IterStats record of TestIterationSingleAllreduce (11) plus the
// hub-proposal reduction (log2 p; the layout has hubs), and the batch
// around them sends the new-ghost query and reply, the ledger flush, one
// exchange per seeding hop and the UpdateStats record.
//
// Work units: while the aggregates were pulled, synchronisation cost
// 205/221/198/187 units per iteration on ranks 0–3, three per referenced
// community, whatever the batch touched. With watches it follows what the
// batch's moves dirtied (each dirty community costs its delta records plus
// one push record per watcher) and must stay under half of that.
//
// "Other" work units also hold the modularity arc scan (arcs + owned
// communities per iteration, unchanged by design: Q stays bit-identical);
// it is subtracted here so the pin sees the synchronisation alone.
func TestIncrementalBatchTraffic(t *testing.T) {
	pullSyncPerIter := [4]int64{205, 221, 198, 187}
	g, _, err := gen.LFR(gen.DefaultLFR(20000, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	opt := Options{P: p, DHigh: DefaultDHigh(p, g.NumVertices(), g.NumArcs())}
	layout, err := partition.Build(g, partition.Options{P: p, Kind: opt.Partitioning, DHigh: opt.DHigh})
	if err != nil {
		t.Fatal(err)
	}
	if len(layout.Hubs) == 0 {
		t.Fatal("fixture has no hubs; the hub-proposal reduction would not be on the wire")
	}
	const (
		perIter  = 3*(p-1) + 2 + 2
		perBatch = (3+2)*(p-1) + 2 // UpdateKHops defaults to 2
	)
	batch := randomStream(g, 5, 1, 4, 0.3)[0]
	msgs := make([]int64, p)
	syncUnits := make([]int64, p)
	iters := make([]int, p)
	err = comm.RunWorld(p, func(c comm.Comm) error {
		r := c.Rank()
		ses, err := NewSession(c, layout.Parts[r].CloneForServing(), opt)
		if err != nil {
			return err
		}
		defer ses.Close()
		if err := ses.Solve(); err != nil {
			return err
		}
		before := c.Stats().Snapshot()
		other := ses.st.workPhase[trace.Other]
		res, err := ses.ApplyUpdates(batch)
		if err != nil {
			return err
		}
		msgs[r] = c.Stats().Snapshot().MsgsSent - before.MsgsSent
		iters[r] = res.Iters
		scan := int64(0)
		for _, adj := range ses.sg.AdjOwned {
			scan += int64(len(adj))
		}
		for _, adj := range ses.sg.AdjHub {
			scan += int64(len(adj))
		}
		for cc := r; cc < ses.n; cc += p {
			scan++
		}
		// One scan per iteration plus the one ApplyUpdates itself reduces.
		syncUnits[r] = ses.st.workPhase[trace.Other] - other - int64(res.Iters+1)*scan
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if want := int64(perBatch + iters[r]*perIter); msgs[r] != want {
			t.Errorf("rank %d sent %d messages over %d iterations, want %d + %d per iteration = %d", r, msgs[r], iters[r], perBatch, perIter, want)
		}
		if per := syncUnits[r] / int64(iters[r]); 2*per > pullSyncPerIter[r] {
			t.Errorf("rank %d: %d synchronisation work units per iteration over %d iterations; the pull spent %d", r, per, iters[r], pullSyncPerIter[r])
		}
	}
	t.Logf("batch: messages per rank %v, sync units per rank %v over %d iterations", msgs, syncUnits, iters[0])
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
		for _, cs := range s.neededCommunities() {
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
			for rd.Remaining() > 0 {
				c := rd.StrideDelta(prev, s.p, s.n)
				rd.F64()
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
		_, err := RunRank(&lastFrameComm{Comm: c, last: make([][]byte, opt.P)}, g, opt)
		return err
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
