package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/wire"
)

// stage is the per-rank runtime state of one clustering stage (with or
// without delegates — a stage without delegates simply has an empty hub
// list). Community IDs live in the stage's vertex-ID space; vertex v and
// community c are owned by rank id mod P (ownerOf) for the life of the stage,
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
	m2    float64
	gamma float64 // modularity resolution γ
	p     int
	rnk   int
	n     int // vertex-ID space size of this stage

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
	tot    []float64
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
	ownTot  []float64
	ownSize []int32

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
	deltaW       []float64
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
	// by the first merge and handed to the next level's stage by the
	// session's solve loop, so successive levels reuse the grown storage.
	ms *mergeScratch

	// rqBufs/rqFrames/rqReqs/rqPos are the resolveQueries stage scratch:
	// reply encode buffers and frame headers (the request leg uses
	// sendScratch; replies need their own set because the request frames
	// must stay intact while the streaming first leg is in flight), and
	// the per-rank routed queries and their original positions.
	rqBufs   []*wire.Buffer
	rqFrames [][]byte
	rqReqs   [][]int
	rqPos    [][]int

	// Intra-rank parallelism (internal/par). pool is nil at one worker;
	// accs holds one gain accumulator per worker (index = worker ID), so
	// the parallel hub-proposal kernel needs no locking and the steady
	// state allocates no scratch.
	pool *par.Pool
	accs []*gainAccumulator

	// Reusable communication scratch, one slot per peer rank: encode
	// buffers (Reset keeps their storage) and the frame headers handed to
	// Alltoallv. Each exchange resets and refills them; the transports
	// copy payloads on Send, so reuse after a collective returns is safe.
	sendBufs []*wire.Buffer
	frames   [][]byte

	// recvIn is the receive-side scratch handed to comm.AlltoallvInto: the
	// slice header and the self-copy backing array are reused across
	// exchanges, so steady-state iterations allocate nothing for them (the
	// peer slots are replaced by transport buffers each call).
	recvIn [][]byte

	// idPrev holds the previous id per peer for the stride-delta encoders
	// (encodeFlush, ghostSwap).
	idPrev []int

	// deltaSrc buffers flushDeltas records per source rank: the streaming
	// exchange decodes frames in arrival order, but Σtot is accumulated in
	// floating point, so the records are applied in rank order to keep the
	// sums bit-identical run to run (see docs/PERFORMANCE.md).
	deltaSrc [][]deltaRec

	// hubBuf is the reusable delegate-exchange encode buffer.
	hubBuf *wire.Buffer

	// props is the reusable hub-proposal slice returned by sweep, filled by
	// hubKernel over hubChunks chunks. The kernel closure is built once per
	// stage (the hub list is immutable) so the steady-state sweep allocates
	// nothing.
	props     []hubProposal
	hubKernel func(chunk, worker int)
	hubChunks int

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
	// when the stage has no hubs. revOff/revAdj are the reverse index: the
	// owned neighbours of ghost or hub t are revAdj[revOff[t]:revOff[t+1]],
	// built once per stage (buildRev). Arcs a Session inserts later go to the
	// revMore overflow (addRev).
	hubIdx  []int32
	revOff  []int32
	revAdj  []int32
	revMore map[int][]int32

	// qKernel/qChunks: the globalModularity arc-scan kernel over the
	// concatenated owned+hub index space, likewise built once per stage.
	qKernel func(chunk, worker int)
	qChunks int

	// needMark/reqs are the dense dedup scratch of neededCommunities:
	// needMark[c] marks community c as already requested this round, and
	// reqs[r] accumulates the requests owned by rank r. Both are reset in
	// O(touched) at the end of each call.
	needMark []bool
	reqs     [][]int

	// chunkQ/chunkWork hold per-chunk partial results of parFor kernels,
	// combined on the main goroutine in chunk order (bit-identical float
	// reductions at every worker count). chunkWork is sized max(p,
	// par.MaxChunks) because the merge's decode kernels chunk by peer rank.
	chunkQ    [par.MaxChunks]float64
	chunkArcs [par.MaxChunks]int64
	chunkWork []int64

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

func newStage(c comm.Comm, sg *partition.Subgraph, opt Options) *stage {
	n := sg.GlobalVertices
	s := &stage{
		c: c, sg: sg, opt: opt,
		m2:        sg.TotalWeight2,
		gamma:     opt.Resolution,
		p:         c.Size(),
		rnk:       c.Rank(),
		n:         n,
		comm:      make([]int32, n),
		tot:       make([]float64, n),
		size:      make([]int32, n),
		cached:    make([]bool, n),
		watched:   make([]bool, n),
		ownTot:    make([]float64, n),
		ownSize:   make([]int32, n),
		deltaW:    make([]float64, n),
		deltaN:    make([]int32, n),
		deltaMark: make([]bool, n),
		needMark:  make([]bool, n),
		hubBuf:    wire.NewBuffer(0),
		active:    make([]bool, n),
		hubActive: make([]bool, len(sg.Hubs)),
		seen:      make([]bool, n),
	}
	nw := opt.Workers
	if nw <= 0 {
		nw = par.DefaultWorkers(s.p)
	}
	s.pool = par.NewPool(nw)
	s.accs = make([]*gainAccumulator, nw)
	for w := range s.accs {
		s.accs[w] = newGainAccumulator(n)
	}
	s.sendBufs = make([]*wire.Buffer, s.p)
	for r := range s.sendBufs {
		s.sendBufs[r] = wire.NewBuffer(0)
	}
	s.frames = make([][]byte, s.p)
	s.rqBufs = make([]*wire.Buffer, s.p)
	for r := range s.rqBufs {
		s.rqBufs[r] = wire.NewBuffer(0)
	}
	s.rqFrames = make([][]byte, s.p)
	s.rqReqs = make([][]int, s.p)
	s.rqPos = make([][]int, s.p)
	s.recvIn = make([][]byte, s.p)
	s.deltaSrc = make([][]deltaRec, s.p)
	s.reqs = make([][]int, s.p)
	s.idPrev = make([]int, s.p)
	s.wHead = make([]int32, n/s.p+1)
	fillInt32(s.wHead, -1)
	s.dirtyMark = make([]bool, n/s.p+1)
	s.first = make([][]int, s.p)
	s.pushIDs = make([][]int, s.p)
	nh := len(sg.Hubs)
	s.props = make([]hubProposal, nh)
	s.hubChunks = par.NumChunks(nh)
	s.hubKernel = func(chunk, worker int) {
		lo, hi := par.ChunkSpan(nh, s.hubChunks, chunk)
		w := int64(0)
		acc := s.accs[worker]
		for i := lo; i < hi; i++ {
			h := s.sg.Hubs[i]
			if !s.hubActive[i] {
				// A negInf proposal never wins the reduction, so a hub no
				// rank has armed stays put without perturbing the collective
				// schedule.
				w++
				s.props[i] = hubProposal{improvement: negInf, target: int(s.comm[h])}
				continue
			}
			s.hubActive[i] = false
			s.seen[h] = true
			w += int64(len(s.sg.AdjHub[i])) + 1
			s.props[i] = s.hubProposal(h, s.sg.HubWDeg[i], s.sg.AdjHub[i], acc)
		}
		s.chunkArcs[chunk] = w
	}
	s.buildQKernel()
	cw := s.p
	if cw < par.MaxChunks {
		cw = par.MaxChunks
	}
	s.chunkWork = make([]int64, cw)
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

// buildRev builds the reverse index from the owned adjacency, which is
// complete, so it covers every (ghost or hub, owned neighbour) pair: one
// counting pass and one fill pass over the owned arcs, charged as work.
func (s *stage) buildRev() {
	foreign := func(t int) bool {
		_, hub := s.hubIndex(t)
		return hub || !s.owns(t)
	}
	off := make([]int32, s.n+2)
	arcs := int64(0)
	for _, adj := range s.sg.AdjOwned {
		for _, a := range adj {
			if foreign(a.To) {
				off[a.To+2]++
			}
		}
		arcs += int64(len(adj))
	}
	for t := 0; t < s.n; t++ {
		off[t+2] += off[t+1]
	}
	s.revAdj = make([]int32, off[s.n+1])
	for i, u := range s.sg.Owned {
		for _, a := range s.sg.AdjOwned[i] {
			if foreign(a.To) {
				// The cursor of t lives in off[t+1]; when the fill ends it has
				// advanced to t+1's start, which is where off[t+1] belongs.
				s.revAdj[off[a.To+1]] = int32(u)
				off[a.To+1]++
			}
		}
	}
	s.revOff = off[:s.n+1]
	s.addWork(trace.Other, 2*arcs)
}

// addRev records owned vertex u as a neighbour of ghost or hub t after the
// index was built (duplicate-free; the lists are per-vertex neighbourhoods,
// so the linear scans are cheap).
func (s *stage) addRev(t, u int) {
	for _, x := range s.revAdj[s.revOff[t]:s.revOff[t+1]] {
		if int(x) == u {
			return
		}
	}
	for _, x := range s.revMore[t] {
		if int(x) == u {
			return
		}
	}
	if s.revMore == nil {
		s.revMore = make(map[int][]int32)
	}
	s.revMore[t] = append(s.revMore[t], int32(u))
}

// armRev arms the owned neighbours of ghost or hub t, whose label changed,
// and returns the fan-in to charge as work.
func (s *stage) armRev(t int) int64 {
	near, more := s.revAdj[s.revOff[t]:s.revOff[t+1]], s.revMore[t]
	for _, u := range near {
		s.active[u] = true
	}
	for _, u := range more {
		s.active[u] = true
	}
	return int64(len(near) + len(more))
}

// buildQKernel builds the globalModularity arc-scan kernel over the
// concatenated owned+hub index space, once per stage (the owned and hub
// tables' lengths are fixed, so the chunk count is too).
func (s *stage) buildQKernel() {
	sg := s.sg
	nOwned := len(sg.Owned)
	nv := nOwned + len(sg.Hubs)
	s.qChunks = par.NumChunks(nv)
	s.qKernel = func(chunk, _ int) {
		lo, hi := par.ChunkSpan(nv, s.qChunks, chunk)
		var in float64
		arcs := int64(0)
		for i := lo; i < hi; i++ {
			var cv int32
			var adj []partition.Arc
			if i < nOwned {
				cv = s.comm[sg.Owned[i]]
				adj = sg.AdjOwned[i]
			} else {
				cv = s.comm[sg.Hubs[i-nOwned]]
				adj = sg.AdjHub[i-nOwned]
			}
			for _, a := range adj {
				if s.comm[a.To] == cv {
					in += a.W
				}
			}
			arcs += int64(len(adj))
		}
		s.chunkQ[chunk] = in
		s.chunkArcs[chunk] = arcs
	}
}

// close releases the stage's worker goroutines. The stage's state stays
// readable (runRank still resolves labels through it); only parallel
// kernels become unavailable.
func (s *stage) close() {
	s.pool.Close()
	s.pool = nil
}

// ownerOf returns the rank that owns vertex or community id in a world of p
// ranks. Ownership is static: the partitioner deals vertices out by id mod p,
// a community's id is a vertex id, and nothing moves either afterwards. Every
// routing decision in this package goes through here.
func ownerOf(id, p int) int { return id % p }

// owns reports whether this rank owns vertex or community id.
func (s *stage) owns(id int) bool { return ownerOf(id, s.p) == s.rnk }

// lookupTot returns the cached Σtot of community c; every candidate
// community is the label of a local vertex, hence watched and pushed before
// the sweep, so a miss is a bug.
func (s *stage) lookupTot(c int) float64 {
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

// neededCommunities returns the deduplicated set of community IDs
// referenced by any locally known vertex, grouped by owning rank. The
// returned per-rank slices are stage-owned scratch, valid until the next
// call.
func (s *stage) neededCommunities() [][]int {
	for r := range s.reqs {
		s.reqs[r] = s.reqs[r][:0]
	}
	note := func(v int) {
		c := int(s.comm[v])
		if s.needMark[c] {
			return
		}
		s.needMark[c] = true
		o := ownerOf(c, s.p)
		s.reqs[o] = append(s.reqs[o], c)
	}
	for _, u := range s.sg.Owned {
		note(u)
	}
	for _, h := range s.sg.Hubs {
		note(h)
	}
	for _, g := range s.sg.Ghosts {
		note(g)
	}
	for r := range s.reqs {
		sort.Ints(s.reqs[r])
		for _, c := range s.reqs[r] {
			s.needMark[c] = false
		}
	}
	return s.reqs
}

// addDelta records that community c gained dw weighted degree and dn
// members (negative for departures).
func (s *stage) addDelta(c int, dw float64, dn int32) {
	if !s.deltaMark[c] {
		s.deltaMark[c] = true
		s.deltaTouched = append(s.deltaTouched, c)
	}
	s.deltaW[c] += dw
	s.deltaN[c] += dn
}

// applyLocalMove updates the local caches and delta ledger for a vertex of
// weighted degree k moving from community from to community to.
func (s *stage) applyLocalMove(from, to int, k float64) {
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
