package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/trace"
	"repro/internal/wire"
)

// sendScratch resets the stage's pooled encode buffers and frame headers
// and returns the frame slice to hand to Alltoallv. The buffers keep their
// storage across iterations (wire.Buffer.Reset), so steady-state exchanges
// allocate nothing on the send side; the transports copy payloads on Send,
// so reuse after a collective returns is safe.
//
//perf:noalloc
func (s *stage) sendScratch() [][]byte {
	for r := 0; r < s.p; r++ {
		s.sendBufs[r].Reset()
		s.frames[r] = nil
	}
	return s.frames
}

// alltoallv is the stage's personalized exchange with the received frames
// landing in pooled scratch.
func (s *stage) alltoallv(out [][]byte) ([][]byte, error) {
	return comm.AlltoallvInto(s.c, out, s.recvIn)
}

// Aggregate synchronisation (docs/PERFORMANCE.md, "Aggregate
// synchronisation"). A rank does not ask for the aggregates it needs every
// iteration; it registers a standing watch with a community's owner the
// first time one of its vertices carries the label (watch, state.go), and
// the owner pushes (c, Σtot, size) to the watchers at the top of the
// iteration after a delta record for c arrived — on receipt, whatever the
// record's value, so every cache entry a rank adjusted locally during its
// sweep is put back to the owner's exact bits. A community nobody touched
// is not re-sent: the cache entry a rank holds for it is already the
// owner's value. The watch requests ride the flush frames that go to the
// same owner anyway (flushDeltas).

// frameErr reports a frame that failed to decode or named an id the sender
// had no business naming.
func (s *stage) frameErr(kind string, src int, cause error) error {
	if cause == nil {
		cause = errForeignID
	}
	return fmt.Errorf("core: rank %d: malformed %s frame from rank %d: %w", s.rnk, kind, src, cause)
}

var errForeignID = errors.New("id outside what the sender may address")

// registerWatches queues a watch for the label of every locally known
// vertex and ships the queue (with whatever the delta ledger holds) in one
// flush exchange. A stage calls it once before its first iteration — after
// newStage for a clustering stage, after the labels are projected for a
// session's resident stage; from then on new labels register themselves
// where they arise.
func (s *stage) registerWatches() error {
	for _, u := range s.sg.Owned {
		s.watch(int(s.comm[u]))
	}
	for _, h := range s.sg.Hubs {
		s.watch(int(s.comm[h]))
	}
	for _, g := range s.sg.Ghosts {
		s.watch(int(s.comm[g]))
	}
	return s.flushDeltas()
}

// pushAggregates opens an iteration: every owner sends each rank the
// aggregates of the dirty communities that rank watches, plus first values
// for the watches registered since the last push, and every rank installs
// what it receives. Each community has one owner, so the per-source
// installs are disjoint and arrival-order application is deterministic.
func (s *stage) pushAggregates() error {
	out := s.sendScratch()
	s.addWork(trace.Other, s.encodePush())
	recvd := int64(0)
	err := comm.AlltoallvFunc(s.c, out, func(src int, payload []byte) error {
		n, err := s.applyPush(src, payload)
		recvd += n
		return err
	})
	if err != nil {
		return err
	}
	s.addWork(trace.Other, recvd)
	return nil
}

// encodePush fills the send frames of pushAggregates and returns the number
// of records encoded. The dirty list is fanned out to the watchers in
// ascending community order, so each destination's ids ascend; they are
// merged with the destination's first-value list on the way out (a new
// watch on a dirty community is in both, and is sent once).
//
//perf:noalloc
func (s *stage) encodePush() int64 {
	sort.Ints(s.dirty)
	for _, c := range s.dirty {
		li := c / s.p
		s.dirtyMark[li] = false
		if s.ownSize[c] == 0 {
			// Emptied: no vertex carries the label any more (labels are
			// consistent world-wide once the ghost swap ran), and none can
			// pick it up again from a neighbour. Its watchers keep a stale
			// entry nobody reads; should a delta ever repopulate it, that
			// delta marks it dirty again and the push restores them.
			continue
		}
		for e := s.wHead[li]; e >= 0; e = s.wNext[e] {
			r := s.wRank[e]
			s.pushIDs[r] = append(s.pushIDs[r], c)
		}
	}
	s.dirty = s.dirty[:0]
	n := int64(0)
	for r := 0; r < s.p; r++ {
		a, b := s.pushIDs[r], s.first[r]
		// One flush fills first[r] in ascending order; a second one before
		// the push (an update batch) appends a second run.
		sort.Ints(b)
		buf := s.sendBufs[r]
		prev := s.rnk - s.p
		for i, j := 0, 0; i < len(a) || j < len(b); {
			var c int
			if j == len(b) || (i < len(a) && a[i] <= b[j]) {
				c = a[i]
				i++
			} else {
				c = b[j]
				j++
			}
			if c == prev {
				continue
			}
			buf.PutStrideDelta(prev, c, s.p)
			buf.PutVarint(s.ownTot[c])
			buf.PutVarint(int64(s.ownSize[c]))
			prev = c
			n++
		}
		s.pushIDs[r] = a[:0]
		s.first[r] = b[:0]
		s.frames[r] = buf.Bytes()
	}
	return n
}

// applyPush installs one owner's push frame and returns the number of
// records installed. The stride-delta decode confines every id to the
// communities src owns; a community this rank never watched is refused.
//
//perf:noalloc
func (s *stage) applyPush(src int, payload []byte) (int64, error) {
	var rd wire.Reader
	rd.Reset(payload)
	n := int64(0)
	prev := src - s.p
	for rd.Remaining() > 0 {
		c := rd.StrideDelta(prev, s.p, s.n)
		tot := rd.Varint()
		size := int32(rd.Varint())
		if rd.Err() != nil || !s.watched[c] {
			return n, s.frameErr("push", src, rd.Err())
		}
		s.tot[c] = tot
		s.size[c] = size
		s.cached[c] = true
		prev = c
		n++
	}
	return n, nil
}

// hubProposal is one rank's best move for one hub, computed from the rank's
// local share of the hub's arcs. Improvement is the modularity-gain
// advantage over keeping the hub in its current community; negative or
// -Inf proposals never win.
type hubProposal struct {
	improvement float64
	target      int
}

// delegateExchange reduces per-rank hub proposals to a global winner per hub
// (max improvement, ties to the smaller target label) and applies the
// winning moves identically on every rank. It returns the number of hubs
// that moved *and are owned by this rank*, so the world-wide sum counts each
// hub once. Only the hub's owner emits aggregate deltas, for the same
// reason.
func (s *stage) delegateExchange(props []hubProposal) (int, error) {
	nh := len(s.sg.Hubs)
	if nh == 0 {
		return 0, nil
	}
	s.hubBuf.Reset()
	for _, pr := range props {
		s.hubBuf.PutF64(pr.improvement)
		s.hubBuf.PutVarint(int64(pr.target))
	}
	// Encode + apply are O(hubs) on every rank; the reduction itself adds
	// O(hubs · log p) combine work, charged here as well.
	s.addWork(trace.BroadcastDelegates, int64(nh)*int64(2+log2ceil(s.p)))
	// The reduction hands combine a peer's frame with no word on who sent it;
	// from tracks the source of the last receive, which is that peer (and,
	// for a rank folded out of the power-of-two core, the sender of the
	// result). A bad frame is not combined: this rank keeps forwarding its
	// own well-formed value so no peer blocks, and fails when the collective
	// ends.
	from := &lastSource{Comm: s.c, src: s.rnk}
	var bad error
	win, err := comm.AllreduceBytes(from, s.hubBuf.Bytes(), func(a, b []byte) []byte {
		out, err := combineHubProposals(a, b, nh, s.n)
		if err != nil {
			if bad == nil {
				bad = s.frameErr("hub-proposal", from.src, err)
			}
			return a
		}
		return out
	})
	if err != nil {
		return 0, err
	}
	if bad != nil {
		return 0, bad
	}
	var rd wire.Reader
	rd.Reset(win)
	moved := 0
	armed := int64(0)
	for i, h := range s.sg.Hubs {
		imp := rd.F64()
		target := int(rd.Varint())
		if rd.Err() != nil || target < 0 || target >= s.n {
			return 0, s.frameErr("hub-proposal", from.src, rd.Err())
		}
		cur := int(s.comm[h])
		if !(imp > gainEps) || target == cur {
			continue
		}
		// A hub's community state is inherently cross-rank, so hub moves
		// take the minimum-label constraint under the enhanced and strict
		// heuristics. The decision is identical on every rank because all
		// inputs are replicated.
		if s.opt.Heuristic != HeuristicSimple && target > cur {
			continue
		}
		k := s.sg.HubWDeg[i]
		s.comm[h] = int32(target)
		s.watch(target) // proposed by another rank, so possibly new here
		// Every rank re-examines the hub from its share, the owned vertices
		// adjacent to it and the hubs its share reaches; the same walks carry
		// the move into sumIn.
		s.hubActive[i] = true
		armed += s.armRev(h, cur, target) + s.arm(h, s.sg.AdjHub[i], cur, target)
		if s.cached[cur] {
			s.tot[cur] -= k
			s.size[cur]--
		}
		if s.cached[target] {
			s.tot[target] += k
			s.size[target]++
		}
		if s.owns(h) {
			s.addDelta(cur, -k, -1)
			s.addDelta(target, k, 1)
			moved++
		}
	}
	if rd.Remaining() > 0 {
		return 0, s.frameErr("hub-proposal", from.src, errLongFrame)
	}
	s.addWork(trace.BroadcastDelegates, armed)
	return moved, nil
}

// lastSource remembers which rank the most recent Recv named.
type lastSource struct {
	comm.Comm
	src int
}

func (c *lastSource) Recv(src, tag int) ([]byte, error) {
	c.src = src
	//lint:ignore tagconst forwarding decorator; the tag is the caller's registered constant
	return c.Comm.Recv(src, tag)
}

var errLongFrame = errors.New("bytes after the last record")

func log2ceil(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

// combineHubProposals merges two encoded proposal vectors elementwise,
// keeping the higher improvement and breaking ties toward the smaller
// target label: an exact semilattice, so it is associative and commutative
// as AllreduceBytes requires and the winner never depends on the reduction
// tree. a is this rank's accumulated vector; b came off the wire and must
// hold exactly nh records, each naming a community below n. (A truncated b
// would otherwise read as (0, 0) records, which beat every negative
// proposal and then fail the gain test — a hub's move dropped on every
// rank without an error.)
func combineHubProposals(a, b []byte, nh, n int) ([]byte, error) {
	ra, rb := wire.NewReader(a), wire.NewReader(b)
	out := wire.NewBuffer(len(a))
	for i := 0; i < nh; i++ {
		ia, ta := ra.F64(), ra.Varint()
		ib, tb := rb.F64(), rb.Varint()
		if err := rb.Err(); err != nil {
			return nil, err
		}
		if tb < 0 || tb >= int64(n) {
			return nil, errForeignID
		}
		if ib > ia || (ib == ia && tb < ta) {
			ia, ta = ib, tb
		}
		out.PutF64(ia)
		out.PutVarint(ta)
	}
	if rb.Remaining() > 0 {
		return nil, errLongFrame
	}
	return out.Bytes(), nil
}

// ghostSwap pushes the labels of changed owned vertices to every rank that
// holds them as ghosts, and applies the symmetric updates received.
func (s *stage) ghostSwap() error {
	bufs := s.sendScratch()
	sent := int64(0)
	for r := range s.idPrev {
		s.idPrev[r] = -1
	}
	// changed lists owned vertices in ascending order (sweep walks them
	// sorted), so each subscriber's ids are stride-1 deltas.
	for _, u := range s.changed {
		subs := s.sg.Subscribers[u]
		if len(subs) == 0 {
			continue
		}
		c := int64(s.comm[u])
		for _, r := range subs {
			s.sendBufs[r].PutStrideDelta(s.idPrev[r], u, 1)
			s.sendBufs[r].PutVarint(c)
			s.idPrev[r] = u
			sent++
		}
	}
	for r := 0; r < s.p; r++ {
		bufs[r] = s.sendBufs[r].Bytes()
	}
	s.addWork(trace.SwapGhost, sent)
	// Stream the inbound label updates: every vertex is published only by
	// its owner, so the per-source writes to s.comm are disjoint and
	// arrival-order application is deterministic. A frame may only name
	// vertices its sender owns and this rank already holds. A ghost whose
	// label changed arms the owned vertices adjacent to it and carries the
	// change into sumIn (no local arc joins two ghosts, so order is moot).
	recvd := int64(0)
	var rd wire.Reader
	err := comm.AlltoallvFunc(s.c, bufs, func(src int, payload []byte) error {
		rd.Reset(payload)
		prev := -1
		for rd.Remaining() > 0 {
			v := rd.StrideDelta(prev, 1, s.n)
			c := rd.Varint()
			if rd.Err() != nil || c < 0 || c >= int64(s.n) || s.comm[v] < 0 || ownerOf(v, s.p) != src {
				return s.frameErr("ghost-swap", src, rd.Err())
			}
			if old := int(s.comm[v]); old != int(c) {
				recvd += s.armRev(v, old, int(c))
			}
			s.comm[v] = int32(c)
			s.watch(int(c))
			prev = v
			recvd++
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.addWork(trace.SwapGhost, recvd)
	return nil
}

// flushDeltas routes the pending Σtot/size deltas and the queued watch
// requests to the community owners, applies the deltas addressed to this
// rank (in arrival order: Σtot is an exact integer) and registers the
// watchers. A community is marked dirty when a record for it arrives, not
// when its value changes: moves on two ranks can cancel at the owner while
// each rank's cache entry holds only its own half.
func (s *stage) flushDeltas() error {
	bufs := s.sendScratch()
	s.addWork(trace.Other, s.encodeFlush())
	applied := int64(0)
	err := comm.AlltoallvFunc(s.c, bufs, func(src int, payload []byte) error {
		n, err := s.recvFlush(src, payload)
		applied += n
		return err
	})
	if err != nil {
		return err
	}
	s.addWork(trace.Other, applied)
	return nil
}

// encodeFlush fills the send frames of flushDeltas and returns the number
// of values encoded. A frame is the (id, Δtot, Δsize) records for the
// owner, then — only if there are watches for it — a zero byte and the
// watch ids to the end of the frame; both id streams are stride-delta
// coded, and an owner with neither gets an empty frame. Sorted order keeps
// the byte streams reproducible run to run.
//
//perf:noalloc
func (s *stage) encodeFlush() int64 {
	sort.Ints(s.deltaTouched)
	sort.Ints(s.watchNew)
	for r := 0; r < s.p; r++ {
		s.idPrev[r] = r - s.p
	}
	for _, c := range s.deltaTouched {
		o := ownerOf(c, s.p)
		b := s.sendBufs[o]
		b.PutStrideDelta(s.idPrev[o], c, s.p)
		b.PutVarint(s.deltaW[c])
		b.PutVarint(int64(s.deltaN[c]))
		s.idPrev[o] = c
		s.deltaW[c] = 0
		s.deltaN[c] = 0
		s.deltaMark[c] = false
	}
	for r := 0; r < s.p; r++ {
		s.idPrev[r] = r - s.p
	}
	for _, c := range s.watchNew {
		o := ownerOf(c, s.p)
		if s.idPrev[o] < 0 { // the owner's first watch: close its delta stream
			s.sendBufs[o].PutUvarint(0)
		}
		s.sendBufs[o].PutStrideDelta(s.idPrev[o], c, s.p)
		s.idPrev[o] = c
	}
	n := int64(len(s.deltaTouched) + len(s.watchNew))
	s.deltaTouched = s.deltaTouched[:0]
	s.watchNew = s.watchNew[:0]
	for r := 0; r < s.p; r++ {
		s.frames[r] = s.sendBufs[r].Bytes()
	}
	return n
}

// recvFlush decodes one flush frame: it applies the delta records — to
// Σtot, size and sumSq — and registers the watchers, and returns the number
// of records and watches. The stride-delta decode confines every id to the
// communities this rank owns.
func (s *stage) recvFlush(src int, payload []byte) (int64, error) {
	var rd wire.Reader
	rd.Reset(payload)
	n := int64(0)
	prev := s.rnk - s.p
	for rd.Remaining() > 0 && !rd.SkipZero() {
		c := rd.StrideDelta(prev, s.p, s.n)
		dw, dn := rd.Varint(), int32(rd.Varint())
		if rd.Err() != nil {
			return n, s.frameErr("flush", src, rd.Err())
		}
		t := s.ownTot[c]
		s.sumSq = s.sumSq.addSq(t, true).addSq(t+dw, false)
		s.ownTot[c] = t + dw
		s.ownSize[c] += dn
		if li := c / s.p; !s.dirtyMark[li] {
			s.dirtyMark[li] = true
			s.dirty = append(s.dirty, c)
		}
		prev = c
		n++
	}
	prev = s.rnk - s.p
	for rd.Remaining() > 0 {
		c := rd.StrideDelta(prev, s.p, s.n)
		if rd.Err() != nil {
			return n, s.frameErr("flush", src, rd.Err())
		}
		li := c / s.p
		s.wRank = append(s.wRank, int32(src))
		s.wNext = append(s.wNext, s.wHead[li])
		s.wHead[li] = int32(len(s.wRank) - 1)
		s.first[src] = append(s.first[src], c)
		prev = c
		n++
	}
	return n, nil
}

// localModularity returns this rank's modularity contribution from the
// incremental terms: its share of Σin over 2m minus γ·Σ(Σtot)²/(2m)² over
// the communities it owns. Summed across ranks it is the global modularity.
// The fixed-point scale cancels in both ratios.
func (s *stage) localModularity() float64 {
	m2 := float64(s.m2)
	return float64(s.sumIn)/m2 - s.gamma*(s.sumSq.float()/m2)/m2
}

// globalModularity reduces localModularity across ranks. The clustering
// loop instead folds the local value into its per-iteration record
// (comm.AllreduceIterStats) — the same reduction with more lanes, so Q is
// bit-identical either way; this standalone form serves the invariant
// checks and tests.
func (s *stage) globalModularity() (float64, error) {
	return comm.AllreduceFloat64Sum(s.c, s.localModularity())
}

// negInf is the improvement of an absent hub proposal.
var negInf = math.Inf(-1)
