package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/partition"
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

// frameErr reports a kind frame that rank rnk failed to decode, or that
// named an id its sender src had no business naming.
func frameErr(rnk int, kind string, src int, cause error) error {
	if cause == nil {
		cause = errForeignID
	}
	return fmt.Errorf("core: rank %d: malformed %s frame from rank %d: %w", rnk, kind, src, cause)
}

var (
	errForeignID = errors.New("id outside what the sender may address")
	errLongFrame = errors.New("bytes after the last record")
)

// registerWatches queues a watch for the label of every locally known
// vertex and ships the queue (with whatever the delta ledger holds) in one
// flush exchange. A stage calls it once before its first iteration — after
// newStage for a clustering stage, after the labels are projected for a
// session's resident stage; from then on new labels register themselves
// where they arise.
func (s *stage) registerWatches() error {
	s.watchNew = slices.Grow(s.watchNew, len(s.sg.Owned)+len(s.sg.Hubs)+len(s.sg.Ghosts))
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
	defer s.charge(exPush, s.bytesSent())
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
// of records encoded. A frame is the scale byte of its Σtot values
// (wire.Scale), then one (id stride-delta, Σtot >> scale, size) record per
// community. The dirty list is fanned out to the watchers in ascending
// community order, so each destination's ids ascend; they are merged with
// the destination's first-value list on the way out (a new watch on a
// dirty community is in both, and is sent once).
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
		// The frame's scale: a community in both lists ORs in twice, which
		// changes nothing.
		or := int64(0)
		for _, c := range a {
			or |= s.ownTot[c]
		}
		for _, c := range b {
			or |= s.ownTot[c]
		}
		sc := wire.Scale(or)
		buf := s.sendBufs[r]
		buf.PutScale(sc)
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
			buf.PutScaledVarint(s.ownTot[c], sc)
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
// communities src owns; a community this rank never watched is refused, as
// is a scale byte past wire.MaxScale or a Σtot past partition.MaxWeight2
// once scaled back.
//
//perf:noalloc
func (s *stage) applyPush(src int, payload []byte) (int64, error) {
	var rd wire.Reader
	rd.Reset(payload)
	sc := rd.Scale()
	if rd.Err() != nil {
		return 0, frameErr(s.rnk, "push", src, rd.Err())
	}
	n := int64(0)
	prev := src - s.p
	for rd.Remaining() > 0 {
		c := rd.StrideDelta(prev, s.p, s.n)
		tot := rd.ScaledVarint(sc, partition.MaxWeight2)
		size := int32(rd.Varint())
		if rd.Err() != nil || !s.watched[c] {
			return n, frameErr(s.rnk, "push", src, rd.Err())
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
// advantage over keeping the hub in its current community; a proposal is
// live when it exceeds gainEps, and only live proposals leave the rank.
type hubProposal struct {
	improvement float64
	target      int
}

// delegateExchange routes every live hub proposal to the hub's owner, which
// folds them to one winner per hub and decides the hub's move; the moves
// ride the ghost swap that follows, and every rank applies them there
// (docs/PERFORMANCE.md, "Owner-arbitrated hub moves"). It returns the number
// of moves this rank decided: each hub has one owner, so the world-wide sum
// counts each hub once. Only the owner emits the hub's aggregate deltas, for
// the same reason.
func (s *stage) delegateExchange(props []hubProposal) (int, error) {
	if len(s.sg.Hubs) == 0 {
		return 0, nil
	}
	defer s.charge(exProposals, s.bytesSent())
	out := s.sendScratch()
	s.addWork(trace.BroadcastDelegates, s.encodeProposals(props))
	recvd := int64(0)
	err := comm.AlltoallvFunc(s.c, out, func(src int, payload []byte) error {
		n, err := s.recvProposals(src, payload)
		recvd += n
		return err
	})
	if err != nil {
		return 0, err
	}
	s.addWork(trace.BroadcastDelegates, recvd+int64(len(s.hubLive)))
	return s.decideHubs(), nil
}

// encodeProposals fills the send frames of delegateExchange with this rank's
// live proposals, each to its hub's owner as (hub-index stride-delta,
// improvement, target), and returns the number of records encoded. Dropping
// the rest is exact: if any rank's proposal for a hub is live, the maximum is
// a live one, and if none is, the hub stays put either way.
//
//perf:noalloc
func (s *stage) encodeProposals(props []hubProposal) int64 {
	for r := range s.idPrev {
		s.idPrev[r] = -1
	}
	n := int64(0)
	for i, pr := range props {
		if !(pr.improvement > gainEps) {
			continue
		}
		o := partition.Owner(s.sg.Hubs[i], s.p)
		b := s.sendBufs[o]
		b.PutStrideDelta(s.idPrev[o], i, 1)
		b.PutF64(pr.improvement)
		b.PutVarint(int64(pr.target))
		s.idPrev[o] = i
		n++
	}
	for r := 0; r < s.p; r++ {
		s.frames[r] = s.sendBufs[r].Bytes()
	}
	return n
}

// recvProposals folds one rank's proposal frame into hubWin and returns the
// number of records. Each record must name a hub this rank owns, once per
// frame, with a live improvement and a community below n. The fold keeps the
// higher improvement and breaks ties toward the smaller target: an exact
// semilattice, so the winner does not depend on the order frames arrive in.
//
//perf:noalloc
func (s *stage) recvProposals(src int, payload []byte) (int64, error) {
	var rd wire.Reader
	rd.Reset(payload)
	n := int64(0)
	prev := -1
	for rd.Remaining() > 0 {
		i := rd.StrideDelta(prev, 1, len(s.sg.Hubs))
		imp, t := rd.F64(), rd.Varint()
		if rd.Err() != nil || !s.owns(s.sg.Hubs[i]) || !(imp > gainEps) || t < 0 || t >= int64(s.n) {
			return n, frameErr(s.rnk, "hub-proposal", src, rd.Err())
		}
		w := &s.hubWin[i]
		if w.improvement == negInf {
			s.hubLive = append(s.hubLive, i)
		}
		if imp > w.improvement || (imp == w.improvement && int(t) < w.target) {
			*w = hubProposal{improvement: imp, target: int(t)}
		}
		prev = i
		n++
	}
	return n, nil
}

// decideHubs turns the folded winners into this rank's hub moves. A winner
// moves its hub unless the target is the hub's label or, under the sized
// and enhanced heuristics, a larger label: a hub's community state is
// inherently cross-rank, so hub moves take the minimum-label rule (the
// owner need not watch the target, so it cannot order by size). Hub labels are
// replicated, so this is the decision every rank would reach from the
// same winner. Afterwards hubLive lists the moving hubs in ascending order,
// their targets in moveTo, for ghostSwap to ship; hubWin is reset for the
// next fold. It returns the number of moves.
//
//perf:noalloc
func (s *stage) decideHubs() int {
	sort.Ints(s.hubLive)
	moving := s.hubLive[:0]
	for _, i := range s.hubLive {
		w := s.hubWin[i]
		s.hubWin[i].improvement = negInf
		cur := int(s.comm[s.sg.Hubs[i]])
		if w.target == cur || (s.opt.Heuristic != HeuristicSimple && w.target > cur) {
			continue
		}
		s.moveTo[i] = int32(w.target)
		moving = append(moving, i)
	}
	s.hubLive = moving
	return len(moving)
}

// ghostSwap pushes the labels of changed owned vertices to every rank that
// holds them as ghosts, and the hub moves this rank decided (decideHubs) to
// every rank; it applies the ghost labels as they arrive and the world's hub
// moves once the exchange is complete (applyHubMoves).
func (s *stage) ghostSwap() error {
	defer s.charge(exGhostSwap, s.bytesSent())
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
	s.addWork(trace.SwapGhost, sent)
	s.addWork(trace.BroadcastDelegates, s.encodeMoves())
	for r := 0; r < s.p; r++ {
		bufs[r] = s.sendBufs[r].Bytes()
	}
	// Stream the inbound label updates: every vertex is published only by
	// its owner, so the per-source writes to s.comm are disjoint and
	// arrival-order application is deterministic. A frame may only name
	// vertices its sender owns and this rank already holds. A ghost whose
	// label changed arms the owned vertices adjacent to it and carries the
	// change into sumIn (no local arc joins two ghosts, so order is moot).
	recvd, hubRecs := int64(0), int64(0)
	s.moves = s.moves[:0]
	var rd wire.Reader
	err := comm.AlltoallvFunc(s.c, bufs, func(src int, payload []byte) error {
		rd.Reset(payload)
		prev := -1
		for rd.Remaining() > 0 && !rd.SkipZero() {
			v := rd.StrideDelta(prev, 1, s.n)
			c := rd.Varint()
			if rd.Err() != nil || c < 0 || c >= int64(s.n) || s.comm[v] < 0 || partition.Owner(v, s.p) != src {
				return frameErr(s.rnk, "ghost-swap", src, rd.Err())
			}
			if old := int(s.comm[v]); old != int(c) {
				recvd += s.armRev(v, old, int(c))
			}
			s.comm[v] = int32(c)
			s.watch(int(c))
			prev = v
			recvd++
		}
		n, err := s.recvMoves(src, &rd)
		hubRecs += n
		return err
	})
	if err != nil {
		return err
	}
	s.addWork(trace.SwapGhost, recvd)
	s.addWork(trace.BroadcastDelegates, hubRecs+s.applyHubMoves())
	return nil
}

// encodeMoves appends this rank's hub moves to every ghost-swap frame, its
// own included: a zero byte closes the ghost stream (no stride-delta id
// starts with one), then a (hub-index stride-delta, target) record per move.
// A rank that decided no move adds nothing. It returns the records encoded.
//
//perf:noalloc
func (s *stage) encodeMoves() int64 {
	if len(s.hubLive) == 0 {
		return 0
	}
	for r := 0; r < s.p; r++ {
		b := s.sendBufs[r]
		b.PutUvarint(0)
		prev := -1
		for _, i := range s.hubLive {
			b.PutStrideDelta(prev, i, 1)
			b.PutVarint(int64(s.moveTo[i]))
			prev = i
		}
	}
	n := int64(s.p * len(s.hubLive))
	s.hubLive = s.hubLive[:0]
	return n
}

// recvMoves decodes the move section of one ghost-swap frame, the rest of
// rd, into moves and moveTo, and returns the number of moves. A move must name
// a hub its sender owns, once, and a community below n; the owners partition
// the hubs, so no hub arrives twice.
//
//perf:noalloc
func (s *stage) recvMoves(src int, rd *wire.Reader) (int64, error) {
	n := int64(0)
	prev := -1
	for rd.Remaining() > 0 {
		i := rd.StrideDelta(prev, 1, len(s.sg.Hubs))
		t := rd.Varint()
		if rd.Err() != nil || partition.Owner(s.sg.Hubs[i], s.p) != src || t < 0 || t >= int64(s.n) {
			return n, frameErr(s.rnk, "hub-move", src, rd.Err())
		}
		s.moveTo[i] = int32(t)
		s.moves = append(s.moves, i)
		prev = i
		n++
	}
	return n, nil
}

// applyHubMoves applies the hub moves the ghost swap decoded (the world's
// moves of this iteration) in ascending hub index, identically on every
// rank, and returns the fan-in to charge as work. It runs after the ghost
// labels of the same exchange, and the order cannot show: a ghost's label
// change walks arcs from owned vertices only, and a hub's walk counts its
// arcs into ghosts with arcShare 0, so neither reads a label the other
// writes.
//
//perf:noalloc
func (s *stage) applyHubMoves() int64 {
	sort.Ints(s.moves)
	armed := int64(0)
	for _, i := range s.moves {
		h := s.sg.Hubs[i]
		cur, target := int(s.comm[h]), int(s.moveTo[i])
		k := s.sg.HubWDeg[i]
		s.comm[h] = int32(target)
		s.watch(target) // decided by another rank, so possibly new here
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
		}
	}
	return armed
}

// flushDeltas routes the pending Σtot/size deltas and the queued watch
// requests to the community owners, applies the deltas addressed to this
// rank (in arrival order: Σtot is an exact integer) and registers the
// watchers. A community is marked dirty when a record for it arrives, not
// when its value changes: moves on two ranks can cancel at the owner while
// each rank's cache entry holds only its own half.
func (s *stage) flushDeltas() error {
	defer s.charge(exFlush, s.bytesSent())
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
// of values encoded. A frame is the scale byte of its Δtot values
// (wire.Scale; Δtot is signed, and shifts arithmetically), the (id,
// Δtot >> scale, Δsize) records for the owner, then — only if there are
// watches for it — a zero byte and the watch ids to the end of the frame;
// both id streams are stride-delta coded, and an owner with neither gets a
// frame of its scale byte alone. Sorted order keeps the byte streams
// reproducible run to run.
//
//perf:noalloc
func (s *stage) encodeFlush() int64 {
	sort.Ints(s.deltaTouched)
	sort.Ints(s.watchNew)
	for r := 0; r < s.p; r++ {
		s.idPrev[r] = r - s.p
		s.orW[r] = 0
	}
	for _, c := range s.deltaTouched {
		s.orW[partition.Owner(c, s.p)] |= s.deltaW[c]
	}
	for r := 0; r < s.p; r++ {
		s.sendBufs[r].PutScale(wire.Scale(s.orW[r]))
	}
	for _, c := range s.deltaTouched {
		o := partition.Owner(c, s.p)
		b := s.sendBufs[o]
		b.PutStrideDelta(s.idPrev[o], c, s.p)
		b.PutScaledVarint(s.deltaW[c], wire.Scale(s.orW[o]))
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
		o := partition.Owner(c, s.p)
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
// communities this rank owns; a scale byte past wire.MaxScale or a Δtot
// whose magnitude passes partition.MaxWeight2 once scaled back is refused.
func (s *stage) recvFlush(src int, payload []byte) (int64, error) {
	var rd wire.Reader
	rd.Reset(payload)
	sc := rd.Scale()
	if rd.Err() != nil {
		return 0, frameErr(s.rnk, "flush", src, rd.Err())
	}
	n := int64(0)
	prev := s.rnk - s.p
	for rd.Remaining() > 0 && !rd.SkipZero() {
		c := rd.StrideDelta(prev, s.p, s.n)
		dw, dn := rd.ScaledVarint(sc, partition.MaxWeight2), int32(rd.Varint())
		if rd.Err() != nil {
			return n, frameErr(s.rnk, "flush", src, rd.Err())
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
	// Every watch id takes at least one byte: the rest of the frame bounds
	// the watches it registers, so the pools grow once per frame.
	s.wRank = slices.Grow(s.wRank, rd.Remaining())
	s.wNext = slices.Grow(s.wNext, rd.Remaining())
	s.first[src] = slices.Grow(s.first[src], rd.Remaining())
	prev = s.rnk - s.p
	for rd.Remaining() > 0 {
		c := rd.StrideDelta(prev, s.p, s.n)
		if rd.Err() != nil {
			return n, frameErr(s.rnk, "flush", src, rd.Err())
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
