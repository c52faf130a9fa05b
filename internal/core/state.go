package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/wire"
)

// stage is the per-rank runtime state of one clustering stage (with or
// without delegates — a stage without delegates simply has an empty hub
// list). Community IDs live in the stage's vertex-ID space; vertex v and
// community c are owned by rank partition.Owner(id, P) for the life of the stage,
// and a community's owner keeps the authoritative Σtot and size for it.
//
// All hot state is kept in dense arrays indexed by vertex/community ID (the
// stage's ID space has n = sg.GlobalVertices entries), as a real MPI
// implementation would; only entries for locally known vertices and locally
// referenced communities are meaningful.
type stage struct {
	c     comm.Comm
	sg    *partition.Subgraph
	opt   Options
	m2    int64   // 2m in fixed-point units (partition/weight.go)
	gamma float64 // modularity resolution γ
	p     int
	rnk   int
	n     int // vertex-ID space size of this stage

	// tau is the stage's relative progress threshold (StopRule): set by
	// Session.solve from the stage's level, 0 everywhere else.
	tau float64

	// comm holds the community label of every locally known vertex:
	// owned low vertices, hubs (replicated), and ghosts. Entries for
	// unknown vertices are -1.
	comm []int32

	// tot and size cache the aggregates of every community this rank
	// watches, for the whole life of the stage: the owner pushes a watched
	// community's (Σtot, size) at the top of the iteration after a delta
	// for it arrived (pushAggregates, sync.go), and the sweep adjusts the
	// entries locally in between (Gauss-Seidel within the rank). cached
	// marks entries that hold a pushed value.
	tot    []int64
	size   []int32
	cached []bool

	// watched marks the communities this rank has asked the owner to push:
	// watch sets it the first time a local vertex (owned, hub or ghost)
	// carries the label, and queues the id in watchNew for the next flush
	// frame. A watch is never withdrawn (docs/PERFORMANCE.md, "Aggregate
	// synchronisation").
	watched  []bool
	watchNew []int

	// ownTot and ownSize are the authoritative aggregates for communities
	// owned by this rank (IDs ≡ rnk mod p), updated by the delta exchange.
	ownTot  []int64
	ownSize []int32

	// sumIn (this rank's share of Σin, scanIn) and sumSq (Σ(Σtot)² over the
	// owned communities) are the modularity terms, kept by deltas (docs/
	// PERFORMANCE.md, "Exact aggregates and incremental modularity").
	sumIn int64
	sumSq u128

	// Owner side of the watches, indexed by c/p for an owned community c.
	// The watcher ranks of a community are a linked list through the
	// append-only pools wRank/wNext, headed by wHead (-1 = none): O(1)
	// insertion, no per-community allocation, no cap on P. dirty lists the
	// communities a delta record arrived for since the last push
	// (dirtyMark dedups); first[r] lists rank r's watches registered since
	// then, which get a first value whether or not the community is dirty.
	// pushIDs[r] is the per-destination scratch of encodePush.
	wHead     []int32
	wNext     []int32
	wRank     []int32
	dirtyMark []bool
	dirty     []int
	first     [][]int
	pushIDs   [][]int

	// Pending aggregate deltas keyed by community, routed to owners at the
	// end of each iteration. deltaTouched drives O(touched) flush/reset;
	// deltaMark prevents duplicate entries when a delta transits zero.
	deltaW       []int64
	deltaN       []int32
	deltaMark    []bool
	deltaTouched []int

	// changed lists owned vertices whose label changed this iteration
	// (drives the ghost swap).
	changed []int

	// dense maps community IDs to their dense merged-graph vertex IDs;
	// populated by merge (-1 = not mapped). The backing array lives in ms
	// and is reused across merge levels.
	dense []int32

	// ms is the merge pipeline's pooled scratch (merge.go), created lazily
	// by the first merge and handed to the next level's stage by
	// nextStage, so successive levels reuse the grown storage.
	ms *mergeScratch

	// rqBufs/rqFrames/rqReqs/rqSlot are the resolveQueries stage scratch:
	// reply encode buffers and frame headers (the request leg uses
	// sendScratch; replies need their own set because the request frames
	// must stay intact while the streaming first leg is in flight), the
	// distinct queried ids routed per owner, and the n-length slot table
	// that deduplicates them and holds each answer (0 between calls).
	rqBufs   []*wire.Buffer
	rqFrames [][]byte
	rqReqs   [][]int
	rqSlot   []int32

	// acc is the sweep's gain accumulator, allocated once per stage so the
	// steady state allocates no scratch.
	acc *gainAccumulator

	// Reusable communication scratch, one slot per peer rank: encode
	// buffers (Reset keeps their storage) and the frame headers handed to
	// Alltoallv. Each exchange resets and refills them; the transports
	// copy payloads on Send, so reuse after a collective returns is safe.
	sendBufs []*wire.Buffer
	frames   [][]byte

	// idPrev holds the previous id per peer for the stride-delta encoders
	// (encodeFlush, ghostSwap), orW the OR of the Δw each flush frame
	// carries, whose trailing zeros are the frame's scale (wire.Scale).
	idPrev []int
	orW    []int64

	// sent is the solve's per-exchange byte tally (charge), shared by the
	// stages of one solve: nextStage hands it on with the scratch.
	sent *WireBytes

	// props is the reusable hub-proposal slice returned by sweep.
	props []hubProposal

	// Hub-move scratch, by hub index (docs/PERFORMANCE.md, "Owner-arbitrated
	// hub moves"). On a hub's owner, hubWin folds the live proposals received
	// (improvement negInf = none yet) and hubLive lists the hubs that got one;
	// decideHubs filters hubLive down to the owner's moves, targets in
	// moveTo. moves lists the world's moves decoded by the ghost swap, every
	// rank's copy, their targets in moveTo too.
	hubWin  []hubProposal
	hubLive []int
	moveTo  []int32
	moves   []int

	// Active-set sweep (docs/PERFORMANCE.md, "Active-set sweep"). active
	// (by vertex id, read for owned vertices only) and hubActive (by hub
	// index, per rank) flag what the next sweep evaluates: a new stage starts
	// fully armed, sweep clears a flag as it evaluates, and a label change
	// re-arms the neighbourhood it can affect (arm, armRev). Every arming is
	// an idempotent set insertion, so frame arrival order cannot show. seen
	// (by vertex id) records what was evaluated since a Session last cleared
	// it: its per-batch drift statistic.
	active    []bool
	hubActive []bool
	seen      []bool

	// hubIdx maps a vertex id to its index in sg.Hubs (-1 = not a hub); nil
	// when the stage has no hubs. revOff/revAdj/revW are the weighted
	// reverse index: the local arcs into ghost or hub t — from owned
	// vertices, and into a hub also from other hubs' shares — come from
	// revAdj[revOff[t]:revOff[t+1]], their weights in revW. buildRev builds
	// it at stage start and after every update batch.
	hubIdx []int32
	revOff []int32
	revAdj []int32
	revW   []int64

	bd trace.Breakdown
	tm *trace.Timer

	// work accumulates deterministic compute-work units (arcs scanned,
	// values encoded/decoded/applied); it feeds the simulated parallel
	// time. Wall-clock measurement is useless here: ranks share the host's
	// cores and preempt each other mid-segment, so timing is dominated by
	// scheduling noise. Work units are exact and reproducible; WorkUnitNS
	// converts them to nominal time. workPhase splits the same count by
	// algorithm phase (Figure 8(b)).
	work      int64
	workPhase [trace.NumPhases]int64
}

// WorkUnitNS is the nominal cost of one work unit (one arc scanned, one
// value encoded/decoded/applied), calibrated against the sequential
// baseline's per-arc sweep cost on this class of hardware. Only ratios of
// simulated times are meaningful; the constant fixes their scale.
const WorkUnitNS = 10

// addWork records n compute-work units in phase ph.
func (s *stage) addWork(ph trace.Phase, n int64) {
	s.work += n
	s.workPhase[ph] += n
}

// newStage builds this rank's stage over sg on fresh storage.
func newStage(c comm.Comm, sg *partition.Subgraph, opt Options) *stage {
	return nextStage(nil, c, sg, opt)
}

// nextStage is newStage on the storage of prev, a finished stage of the
// same rank: the solve loop hands each level the stage it merged from,
// which is dead once the merge has resolved its labels. Reusing its
// per-vertex arrays and exchange scratch keeps a solve's levels from
// piling garbage onto the heap; every array is cleared, so the stage is
// the one fresh storage gives. prev may be nil.
func nextStage(prev *stage, c comm.Comm, sg *partition.Subgraph, opt Options) *stage {
	if prev == nil {
		prev = &stage{acc: &gainAccumulator{}, sent: new(WireBytes)}
	}
	n := sg.GlobalVertices
	s := &stage{
		c: c, sg: sg, opt: opt,
		m2:        sg.TotalWeight2,
		gamma:     opt.Resolution,
		p:         c.Size(),
		rnk:       c.Rank(),
		n:         n,
		comm:      reuse(prev.comm, n),
		tot:       reuse(prev.tot, n),
		size:      reuse(prev.size, n),
		cached:    reuse(prev.cached, n),
		watched:   reuse(prev.watched, n),
		ownTot:    reuse(prev.ownTot, n),
		ownSize:   reuse(prev.ownSize, n),
		deltaW:    reuse(prev.deltaW, n),
		deltaN:    reuse(prev.deltaN, n),
		deltaMark: reuse(prev.deltaMark, n),
		active:    reuse(prev.active, n),
		hubActive: make([]bool, len(sg.Hubs)),
		seen:      reuse(prev.seen, n),
		rqSlot:    reuse(prev.rqSlot, n),
		ms:        prev.ms,
		sent:      prev.sent,
	}
	s.acc = &gainAccumulator{w: reuse(prev.acc.w, n), seen: reuse(prev.acc.seen, n)}
	// Every user resets these before it writes them.
	s.sendBufs, s.rqBufs, s.rqReqs = prev.sendBufs, prev.rqBufs, prev.rqReqs
	if s.sendBufs == nil {
		s.sendBufs, s.rqBufs = make([]*wire.Buffer, s.p), make([]*wire.Buffer, s.p)
		for r := range s.sendBufs {
			s.sendBufs[r], s.rqBufs[r] = wire.NewBuffer(0), wire.NewBuffer(0)
		}
		s.rqReqs = make([][]int, s.p)
	}
	s.frames = make([][]byte, s.p)
	s.rqFrames = make([][]byte, s.p)
	s.idPrev = make([]int, s.p)
	s.orW = make([]int64, s.p)
	s.wHead = reuse(prev.wHead, n/s.p+1)
	fillInt32(s.wHead, -1)
	s.dirtyMark = reuse(prev.dirtyMark, n/s.p+1)
	s.first = make([][]int, s.p)
	s.pushIDs = make([][]int, s.p)
	nh := len(sg.Hubs)
	s.props = make([]hubProposal, nh)
	s.hubWin = make([]hubProposal, nh)
	for i := range s.hubWin {
		s.hubWin[i].improvement = negInf
	}
	s.moveTo = make([]int32, nh)
	s.hubLive = make([]int, 0, nh)
	s.moves = make([]int, 0, nh)
	s.tm = trace.NewTimer(&s.bd)
	for i := range s.comm {
		s.comm[i] = -1
	}
	// Every vertex starts in its own singleton community.
	for i, u := range sg.Owned {
		s.comm[u] = int32(u)
		s.ownTot[u] = sg.OwnedWDeg[i]
		s.ownSize[u] = 1
	}
	for i, h := range sg.Hubs {
		s.comm[h] = int32(h)
		if s.owns(h) {
			s.ownTot[h] = sg.HubWDeg[i]
			s.ownSize[h] = 1
		}
	}
	for _, g := range sg.Ghosts {
		s.comm[g] = int32(g)
	}
	if nh > 0 {
		s.hubIdx = make([]int32, n)
		fillInt32(s.hubIdx, -1)
		for i, h := range sg.Hubs {
			s.hubIdx[h] = int32(i)
		}
	}
	s.buildRev()
	s.setActive(true)
	return s
}

// reuse returns buf[:n] cleared when its capacity allows, else a new slice.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	clear(buf[:n])
	return buf[:n]
}

// hubIndex returns v's index in the (sorted, replicated) hub directory.
func (s *stage) hubIndex(v int) (int, bool) {
	if s.hubIdx == nil || s.hubIdx[v] < 0 {
		return 0, false
	}
	return int(s.hubIdx[v]), true
}

// setActive arms (or disarms) every vertex and hub: a new stage starts from
// a full sweep, a Session's resident stage from none.
func (s *stage) setActive(on bool) {
	for i := range s.active {
		s.active[i] = on
	}
	for i := range s.hubActive {
		s.hubActive[i] = on
	}
}

// buildRev builds the weighted reverse index from the local arcs: one
// counting pass and one fill pass over the owned arcs into ghosts and hubs
// and the hub-share arcs into other hubs, charged as work.
func (s *stage) buildRev() {
	// each calls f for every indexed arc u→t of weight w.
	each := func(f func(u, t int, w int64)) int64 {
		arcs := int64(0)
		for i, u := range s.sg.Owned {
			for _, a := range s.sg.AdjOwned[i] {
				if _, hub := s.hubIndex(a.To); hub || !s.owns(a.To) {
					f(u, a.To, a.W)
				}
			}
			arcs += int64(len(s.sg.AdjOwned[i]))
		}
		for i, h := range s.sg.Hubs {
			for _, a := range s.sg.AdjHub[i] {
				if _, hub := s.hubIndex(a.To); hub && a.To != h {
					f(h, a.To, a.W)
				}
			}
			arcs += int64(len(s.sg.AdjHub[i]))
		}
		return arcs
	}
	off := make([]int32, s.n+2)
	arcs := each(func(_, t int, _ int64) { off[t+2]++ })
	for t := 0; t < s.n; t++ {
		off[t+2] += off[t+1]
	}
	s.revAdj = make([]int32, off[s.n+1])
	s.revW = make([]int64, off[s.n+1])
	each(func(u, t int, w int64) {
		// The cursor of t lives in off[t+1]; when the fill ends it has
		// advanced to t+1's start, which is where off[t+1] belongs.
		s.revAdj[off[t+1]], s.revW[off[t+1]] = int32(u), w
		off[t+1]++
	})
	s.revOff = off[:s.n+1]
	s.addWork(trace.Other, 2*arcs)
}

// armRev arms the owned neighbours of ghost or hub t, whose label changed
// from a to b, applies the change to sumIn over the local arcs into t, and
// returns the fan-in to charge as work. (A hub source's flag is set too and
// never read.)
//
//perf:noalloc
func (s *stage) armRev(t, a, b int) int64 {
	_, hub := s.hubIndex(t)
	lo, hi := s.revOff[t], s.revOff[t+1]
	for j := lo; j < hi; j++ {
		u := int(s.revAdj[j])
		s.active[u] = true
		if f := s.flip(u, a, b, s.revW[j]); f != 0 {
			_, uHub := s.hubIndex(u)
			s.sumIn += f * arcShare(uHub, hub, false)
		}
	}
	return int64(hi - lo)
}

// flip returns the signed change, w, -w or 0, of the match between a vertex
// x that kept its label and a neighbour that moved from community a to b.
//
//perf:noalloc
func (s *stage) flip(x, a, b int, w int64) int64 {
	switch int(s.comm[x]) {
	case b:
		return w
	case a:
		return -w
	}
	return 0
}

// arcShare is how many times scanIn counts an arc's weight, with the arc
// back's when that is local too: from an owned vertex 2 into a hub (whose
// share of the arc back counts 0) or an owned vertex (dstLocal), else 1;
// between hubs 1.
func arcShare(srcHub, dstHub, dstLocal bool) int64 {
	switch {
	case srcHub && dstHub:
		return 1
	case srcHub:
		return 0
	case dstHub || dstLocal:
		return 2
	}
	return 1
}

// scanIn is the exact full scan of this rank's share of Σin, the oracle of
// sumIn: intra-community arcs from owned vertices, doubled into a hub, and
// hub-share arcs between hubs. Across the world every edge counts twice,
// wherever the partitioner put a hub's arcs.
func (s *stage) scanIn() (in, arcs int64) {
	for i, u := range s.sg.Owned {
		cu := s.comm[u]
		for _, a := range s.sg.AdjOwned[i] {
			if s.comm[a.To] == cu {
				_, hub := s.hubIndex(a.To)
				in += arcShare(false, hub, false) * a.W
			}
		}
		arcs += int64(len(s.sg.AdjOwned[i]))
	}
	for i, h := range s.sg.Hubs {
		ch := s.comm[h]
		for _, a := range s.sg.AdjHub[i] {
			if _, hub := s.hubIndex(a.To); hub && s.comm[a.To] == ch {
				in += a.W
			}
		}
		arcs += int64(len(s.sg.AdjHub[i]))
	}
	return in, arcs
}

// scanSq is the exact full scan of Σ(Σtot)² over the owned communities, the
// oracle of sumSq.
func (s *stage) scanSq() u128 {
	var sq u128
	for c := s.rnk; c < s.n; c += s.p {
		sq = sq.addSq(s.ownTot[c], false)
	}
	return sq
}

// seedQ sets sumIn and sumSq from the full scans, charged as work: at stage
// entry, and where a Session rewrites labels or arcs wholesale.
func (s *stage) seedQ() {
	in, arcs := s.scanIn()
	s.sumIn, s.sumSq = in, s.scanSq()
	s.addWork(trace.Other, arcs+int64(s.n/s.p))
}

// u128 is an unsigned 128-bit integer with wrapping arithmetic: sumSq passes
// through values that are not its final one while records apply in arrival
// order, and modular arithmetic makes the end result exact regardless.
type u128 struct{ hi, lo uint64 }

// addSq returns x + t², or x − t² when neg.
func (x u128) addSq(t int64, neg bool) u128 {
	if t < 0 {
		t = -t
	}
	hi, lo := bits.Mul64(uint64(t), uint64(t))
	var c uint64
	if neg {
		lo, c = bits.Sub64(x.lo, lo, 0)
		hi, _ = bits.Sub64(x.hi, hi, c)
	} else {
		lo, c = bits.Add64(x.lo, lo, 0)
		hi, _ = bits.Add64(x.hi, hi, c)
	}
	return u128{hi, lo}
}

func (x u128) float() float64 { return float64(x.hi)*(1<<64) + float64(x.lo) }

// owns reports whether this rank owns vertex or community id.
func (s *stage) owns(id int) bool { return partition.Owner(id, s.p) == s.rnk }

// lookupTot returns the cached Σtot of community c; every candidate
// community is the label of a local vertex, hence watched and pushed before
// the sweep, so a miss is a bug.
func (s *stage) lookupTot(c int) int64 {
	if !s.cached[c] {
		panic(fmt.Sprintf("core: rank %d missing Σtot for community %d", s.rnk, c))
	}
	return s.tot[c]
}

// cachedSize returns the cached member count of community c (0 when the
// community is not cached; used only by heuristic guards).
func (s *stage) cachedSize(c int) int32 {
	if !s.cached[c] {
		return 0
	}
	return s.size[c]
}

// watch asks the owner of community c to push its aggregates from now on.
// Every site that gives a local vertex a label it did not pick from a
// neighbour calls it (stage start, a hub's winning target, a ghost's new
// label); the request itself rides the next flush frame.
func (s *stage) watch(c int) {
	if !s.watched[c] {
		s.watched[c] = true
		s.watchNew = append(s.watchNew, c)
	}
}

// addDelta records that community c gained dw weighted degree and dn
// members (negative for departures).
func (s *stage) addDelta(c int, dw int64, dn int32) {
	if !s.deltaMark[c] {
		s.deltaMark[c] = true
		s.deltaTouched = append(s.deltaTouched, c)
	}
	s.deltaW[c] += dw
	s.deltaN[c] += dn
}

// applyLocalMove updates the local caches and delta ledger for a vertex of
// weighted degree k moving from community from to community to.
func (s *stage) applyLocalMove(from, to int, k int64) {
	s.tot[from] -= k
	s.size[from]--
	if s.cached[to] {
		s.tot[to] += k
		s.size[to]++
	}
	s.addDelta(from, -k, -1)
	s.addDelta(to, k, 1)
}

// workBreakdown returns the per-phase simulated compute time of the stage
// (work units × WorkUnitNS).
func (s *stage) workBreakdown() trace.Breakdown {
	var b trace.Breakdown
	for i := range s.workPhase {
		b.Durations[i] = time.Duration(s.workPhase[i] * WorkUnitNS)
	}
	b.Iters = s.bd.Iters
	return b
}

// stageResult summarizes a converged clustering stage.
type stageResult struct {
	Q      float64
	Iters  int
	QTrace []float64
	// Moved is the world-wide number of vertex and hub moves of the stage.
	Moved int64
	// SimNS is the simulated parallel compute time of the stage in
	// nanoseconds: Σ over iterations of max-across-ranks work × WorkUnitNS.
	SimNS int64
	// CommSimNS is the simulated communication time: Σ over iterations of
	// max-across-ranks α-β cost of the rank's sent traffic.
	CommSimNS int64
}
