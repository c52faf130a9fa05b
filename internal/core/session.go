package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Session is the resumable per-rank state of the distributed Louvain solver.
// It is the refactor seam between the batch CLI and the resident serving
// layer (cmd/dserver): both drive the same object.
//
// The batch path (core.Run / core.RunRank) constructs a Session and calls
// solve(), the hierarchical solve of Algorithm 1; the Session adds no
// collectives and no state to that path.
//
// The serving path calls Solve(), which additionally installs a resident
// flat stage over the original graph: the converged hierarchy is projected
// back to a single community assignment in original-vertex space (community
// IDs are representative vertices — the minimum original vertex of each
// final community — so community c stays owned by rank c mod p). The rank
// then stays resident, answering queries from the installed stage and
// applying batched edge updates with ApplyUpdates, which re-clusters
// *incrementally*: it is the batch solver's clustering loop and sweep on a
// stage that starts with nothing armed, where only the vertices within
// Options.UpdateKHops hops of a changed edge are seeded into the stage's
// active set (state.go).
//
// Incremental quality drifts from the full-solve oracle; the Session tracks
// that drift (cumulative |ΔQ| plus the cumulative fraction of vertices
// re-examined) and ApplyUpdates reports NeedFull once either crosses its
// Options threshold. The fallback itself is the driver's call: Solve() on
// the mutated subgraphs re-runs the full hierarchy and resets the drift.
//
// Like every SPMD object in this repository, all ranks must call the
// collective-bearing methods (Solve, ApplyUpdates, Close is local) in the
// same program order with consistent arguments.
type Session struct {
	c   comm.Comm
	sg  *partition.Subgraph
	opt Options
	n   int
	p   int
	rnk int

	st  *stage   // resident flat stage; nil until Solve() installs it
	out *rankOut // result of the last hierarchical solve

	q          float64 // current global modularity (replicated)
	driftQ     float64 // cumulative |ΔQ| since the last full solve
	driftTouch float64 // cumulative touched-vertex fraction since last full solve

	// bfsMark/bfsList: per-batch visited set of the k-hop seeding BFS.
	bfsMark []bool
	bfsList []int

	newGhosts []int // ghosts discovered by the current batch, labels pending
}

// EdgeOp is one edge mutation of an update batch. U and V are global vertex
// IDs (U != V; the ID space is fixed at partitioning time). Insert adds W
// (> 0) to the edge's weight, creating it if absent. Del removes the edge
// entirely; W must carry the edge's full current weight — the serving
// driver validates ops against its authoritative edge ledger before
// dispatching, so the Session never needs a discovery round to find it.
// Every rank must receive the identical batch (replicated input).
type EdgeOp struct {
	U, V int
	W    float64
	Del  bool
}

// UpdateResult reports one applied batch. Moved/Touched are world totals;
// Q is the new global modularity; all fields are identical on every rank.
type UpdateResult struct {
	// Moved counts vertices that changed community while re-clustering.
	Moved int64
	// Touched counts distinct vertices the incremental sweep re-examined.
	Touched int64
	// Q is the global modularity after the batch.
	Q float64
	// Iters is the number of incremental clustering iterations run.
	Iters int
	// NeedFull reports that cumulative drift crossed Options.DriftQ or
	// Options.DriftTouched: the caller should re-solve (Session.Solve)
	// to re-pin quality. The decision is replicated.
	NeedFull bool
}

// NewSession wraps a rank's subgraph for solving and serving. The Session
// owns sg from here on: ApplyUpdates mutates it (pass
// partition.Subgraph.CloneForServing when the caller's copy must stay
// pristine — the batch path never mutates, so core.Run passes layout parts
// directly).
func NewSession(c comm.Comm, sg *partition.Subgraph, opt Options) (*Session, error) {
	if opt.P == 0 {
		opt.P = c.Size()
	}
	if opt.P != c.Size() {
		return nil, fmt.Errorf("core: Options.P = %d but communicator has %d ranks", opt.P, c.Size())
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Session{
		c:   c,
		sg:  sg,
		opt: opt,
		n:   sg.GlobalVertices,
		p:   c.Size(),
		rnk: c.Rank(),
	}, nil
}

// owns reports whether this rank owns vertex (or community) id.
func (s *Session) owns(id int) bool { return ownerOf(id, s.p) == s.rnk }

// Close releases the resident stage's worker goroutines. Local (no
// collectives); the Session is unusable afterwards.
func (s *Session) Close() {
	if s.st != nil {
		s.st.close()
		s.st = nil
	}
}

// Solve runs the full hierarchical solve on the current subgraph and
// installs the resident serving state, resetting the drift counters. It is
// both the initial solve and the drift fallback: after ApplyUpdates reports
// NeedFull, calling Solve on every rank re-clusters the mutated graph from
// scratch (the partition layout — ownership and the delegate set — is kept;
// re-partitioning requires a fresh world).
func (s *Session) Solve() error {
	out, err := s.solve()
	if err != nil {
		return err
	}
	s.out = out
	return s.install()
}

// solve is the per-rank hierarchical algorithm: stage 1 with delegates,
// then merge/recluster rounds without delegates until modularity stops
// improving (Algorithm 1). The batch path calls it directly.
func (s *Session) solve() (*rankOut, error) {
	c, sg, opt := s.c, s.sg, s.opt
	if opt.CommDeadline > 0 {
		// Endpoint-wide default deadline: every Recv of the run — including
		// those inside the collectives — fails with comm.ErrTimeout instead
		// of blocking forever once a peer stops responding. Transports
		// without deadline support keep unbounded blocking.
		comm.SetRecvTimeout(c, opt.CommDeadline)
	}
	tracked := append([]int(nil), sg.Owned...)
	for _, h := range sg.Hubs {
		if s.owns(h) {
			tracked = append(tracked, h)
		}
	}
	cur := append([]int(nil), tracked...) // current coarse vertex of each tracked original vertex

	st := newStage(c, sg, opt)
	cs := st
	// cs tracks the live stage; close releases its intra-rank worker
	// goroutines (the stage's state stays readable for label resolution).
	defer func() { cs.close() }()
	t1 := trace.Now()
	res1, err := st.clusterNew()
	if err != nil {
		return nil, err
	}
	out := &rankOut{
		tracked:  tracked,
		stage1:   res1,
		qtrace:   append([]float64(nil), res1.QTrace...),
		finalQ:   res1.Q,
		outer:    1,
		stage1NS: int64(trace.Since(t1)),
		sim1NS:   res1.SimNS,
		comm1NS:  res1.CommSimNS,
		bd:       st.bd,
		busyBD:   st.workBreakdown(),
	}
	out.workUnits += st.work

	// Current global vertex count (needed to detect a no-op merge).
	ownCount, err := comm.AllreduceInt64Sum(c, int64(len(sg.Owned)))
	if err != nil {
		return nil, err
	}
	curCount := int(ownCount) + len(sg.Hubs)

	t2 := trace.Now()
	defer func() { out.stage2NS = int64(trace.Since(t2)) }()

	prevQ := res1.Q
	snapshot := func() {
		if opt.TrackLevels {
			out.levels = append(out.levels, append([]int(nil), cur...))
		}
	}
	for {
		if opt.MaxOuterLevels > 0 && out.outer >= opt.MaxOuterLevels {
			cur, err = cs.resolveQueries(cur, func(x int) int { return int(cs.comm[x]) })
			if err != nil {
				return nil, err
			}
			out.labels = cur
			snapshot()
			return out, nil
		}
		newSG, k, err := cs.merge()
		if err != nil {
			return nil, err
		}
		cur, err = cs.resolveQueries(cur, func(x int) int { return int(cs.dense[cs.comm[x]]) })
		if err != nil {
			return nil, err
		}
		snapshot()
		if k <= 1 || k == curCount {
			// Fully merged, or merging achieved nothing: done.
			out.labels = cur
			return out, nil
		}
		curCount = k

		st2 := newStage(c, newSG, opt)
		st2.ms = cs.ms // successive merge levels reuse the grown scratch
		r2, err := st2.clusterNew()
		if err != nil {
			st2.close()
			return nil, err
		}
		cs.close()
		cs = st2
		out.workUnits += st2.work
		out.outer++
		out.qtrace = append(out.qtrace, r2.QTrace...)
		out.finalQ = r2.Q
		out.sim2NS += r2.SimNS
		out.comm2NS += r2.CommSimNS
		if r2.Q-prevQ < opt.MinGain {
			// Keep this stage's (possibly tiny) improvement, then stop.
			cur, err = cs.resolveQueries(cur, func(x int) int { return int(cs.comm[x]) })
			if err != nil {
				return nil, err
			}
			out.labels = cur
			snapshot()
			return out, nil
		}
		prevQ = r2.Q
	}
}

// install projects the converged hierarchy back onto the original graph and
// builds the resident flat stage the serving path queries and updates.
//
// Community IDs of the resident stage are *representative vertices*: the
// global minimum original vertex of each final community. That keeps
// community c owned by rank c mod p (the invariant every aggregate exchange
// relies on) without a separate community ID space. Two collectives compute
// the representatives, then the stage is rebuilt with exact aggregates and
// replicated hub/ghost labels, and the drift counters reset.
func (s *Session) install() error {
	tracked, labels := s.out.tracked, s.out.labels

	// Exchange 1: representative of each final community label L = the
	// minimum tracked vertex with that label, computed at rank L%p.
	// Min-combine is order-independent, so arrival order cannot matter.
	localMin := make(map[int]int)
	var keys []int
	for i, v := range tracked {
		l := labels[i]
		if m, ok := localMin[l]; !ok || v < m {
			if !ok {
				keys = append(keys, l)
			}
			localMin[l] = v
		}
	}
	sort.Ints(keys)
	outBufs := make([][]byte, s.p)
	bufs := make([]*wire.Buffer, s.p)
	for r := range bufs {
		bufs[r] = wire.NewBuffer(0)
	}
	for _, l := range keys {
		b := bufs[ownerOf(l, s.p)]
		b.PutVarint(int64(l))
		b.PutVarint(int64(localMin[l]))
	}
	for r := range bufs {
		outBufs[r] = bufs[r].Bytes()
	}
	repOf := make(map[int]int)
	err := comm.AlltoallvFunc(s.c, outBufs, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		for rd.Remaining() > 0 {
			l := int(rd.Varint())
			v := int(rd.Varint())
			if m, ok := repOf[l]; !ok || v < m {
				repOf[l] = v
			}
		}
		return rd.Err()
	})
	if err != nil {
		return err
	}

	// Fresh flat stage over the (possibly mutated) original subgraph.
	if s.st != nil {
		s.st.close()
	}
	st := newStage(s.c, s.sg, s.opt)
	s.st = st

	// Exchange 2: resolve every tracked vertex's label to its representative.
	reps, err := st.resolveQueries(labels, func(l int) int { return repOf[l] })
	if err != nil {
		return err
	}

	// Authoritative aggregates: zero this rank's community slots, then
	// rebuild them through the delta ledger exactly like a live iteration
	// (flushDeltas applies in rank order — bit-identical accumulation). The
	// ledger is flushed below, in the frame that registers the watches.
	for c := s.rnk; c < s.n; c += s.p {
		st.ownTot[c] = 0
		st.ownSize[c] = 0
	}
	nOwned := len(s.sg.Owned)
	for i, v := range tracked {
		st.comm[v] = int32(reps[i])
		var k float64
		if i < nOwned {
			k = s.sg.OwnedWDeg[i]
		} else {
			hi, ok := st.hubIndex(v)
			if !ok {
				return fmt.Errorf("core: rank %d: tracked vertex %d is neither owned nor a hub", s.rnk, v)
			}
			k = s.sg.HubWDeg[hi]
		}
		st.addDelta(reps[i], k, 1)
	}

	// Hub labels are replicated state: every rank learns every hub's
	// representative from the hub's owner (disjoint writes, rank order).
	hubBuf := wire.NewBuffer(0)
	for i := nOwned; i < len(tracked); i++ {
		hi, _ := st.hubIndex(tracked[i])
		hubBuf.PutUvarint(uint64(hi))
		hubBuf.PutVarint(int64(reps[i]))
	}
	hubFrames, err := comm.Allgather(s.c, hubBuf.Bytes())
	if err != nil {
		return err
	}
	for r := 0; r < s.p; r++ {
		rd := wire.NewReader(hubFrames[r])
		for rd.Remaining() > 0 {
			hi := int(rd.Uvarint())
			rep := int(rd.Varint())
			st.comm[s.sg.Hubs[hi]] = int32(rep)
		}
		if err := rd.Err(); err != nil {
			return err
		}
	}

	// Ghost labels: push every subscribed owned vertex's label through the
	// regular ghost swap (what it arms is disarmed below).
	st.changed = st.changed[:0]
	for _, u := range s.sg.Owned {
		if len(s.sg.Subscribers[u]) > 0 {
			st.changed = append(st.changed, u)
		}
	}
	if err := st.ghostSwap(); err != nil {
		return err
	}

	// Every label is final: one flush carries the aggregates to their
	// owners and registers the resident stage's watches, which then last
	// across every ApplyUpdates batch until the next install.
	if err := st.registerWatches(); err != nil {
		return err
	}
	// Warm the cache here, so the first update batch pushes what it dirtied
	// and not every first value.
	if err := st.pushAggregates(); err != nil {
		return err
	}

	// Exact modularity of the installed state (0 by convention on an
	// edgeless graph — m2 is replicated, so every rank skips together).
	var q float64
	if st.m2 > 0 {
		if q, err = st.globalModularity(); err != nil {
			return err
		}
	}
	s.q = q
	s.driftQ = 0
	s.driftTouch = 0

	// The installed state is the converged one: nothing is armed until an
	// update batch seeds its neighbourhood.
	st.setActive(false)
	s.bfsMark = make([]bool, s.n)
	s.bfsList = s.bfsList[:0]
	return nil
}

// Modularity returns the current global modularity (replicated; valid after
// Solve).
func (s *Session) Modularity() float64 { return s.q }

// Drift returns the cumulative drift since the last full solve: the summed
// |ΔQ| across batches and the summed touched-vertex fraction.
func (s *Session) Drift() (dq, dtouched float64) { return s.driftQ, s.driftTouch }

// CommunityOf returns vertex v's current community (its representative
// vertex) when this rank owns v (v mod p); ok is false otherwise — exactly
// one rank answers any vertex.
func (s *Session) CommunityOf(v int) (int, bool) {
	if s.st == nil || v < 0 || v >= s.n || !s.owns(v) {
		return 0, false
	}
	return int(s.st.comm[v]), true
}

// NeighborhoodOf returns this rank's share of v's adjacency: the complete
// adjacency when v is an owned low vertex, the local arc share when v is a
// hub, nil otherwise. The caller merges shares across ranks for hubs.
func (s *Session) NeighborhoodOf(v int) []partition.Arc {
	if s.st == nil || v < 0 || v >= s.n {
		return nil
	}
	if hi, ok := s.st.hubIndex(v); ok {
		return append([]partition.Arc(nil), s.sg.AdjHub[hi]...)
	}
	if i, ok := s.sg.OwnedIndex(v); ok {
		return append([]partition.Arc(nil), s.sg.AdjOwned[i]...)
	}
	return nil
}

// Tracked returns the original vertices this rank reports and their current
// community labels (representative vertices, not normalized). The caller
// gathers all ranks' pieces to assemble a full membership.
func (s *Session) Tracked() (vertices, labels []int) {
	if s.st == nil {
		return nil, nil
	}
	vertices = s.out.tracked
	labels = make([]int, len(vertices))
	for i, v := range vertices {
		labels[i] = int(s.st.comm[v])
	}
	return vertices, labels
}

// ValidateOps checks an update batch against the Session's ID space:
// in-range endpoints, no self-loops, positive weights. It does not check
// edge existence — that is the serving driver's ledger's job.
func (s *Session) ValidateOps(ops []EdgeOp) error {
	for i, op := range ops {
		if op.U < 0 || op.U >= s.n || op.V < 0 || op.V >= s.n {
			return fmt.Errorf("core: op %d: vertex out of range [0,%d): %d-%d", i, s.n, op.U, op.V)
		}
		if op.U == op.V {
			return fmt.Errorf("core: op %d: self-loop %d-%d not supported", i, op.U, op.V)
		}
		if op.W <= 0 {
			return fmt.Errorf("core: op %d: weight %g, want > 0", i, op.W)
		}
	}
	return nil
}

// ApplyUpdates applies one replicated batch of edge mutations and
// re-clusters incrementally: the vertices within Options.UpdateKHops hops
// of any changed edge are armed, and the stage's clustering loop runs from
// that active set until no vertex moves. Every rank must call it with the
// identical, pre-validated batch.
func (s *Session) ApplyUpdates(ops []EdgeOp) (UpdateResult, error) {
	var zero UpdateResult
	if s.st == nil {
		return zero, fmt.Errorf("core: ApplyUpdates before Solve")
	}
	if err := s.ValidateOps(ops); err != nil {
		return zero, err
	}
	s.newGhosts = s.newGhosts[:0]
	s.applyOps(ops)
	s.registerSubscriptions(ops)
	if err := s.resolveNewGhosts(); err != nil {
		return zero, err
	}
	if err := s.st.flushDeltas(); err != nil {
		return zero, err
	}
	if err := s.seedFromOps(ops); err != nil {
		return zero, err
	}
	qBefore := s.q
	res, err := s.st.cluster()
	if err != nil {
		return zero, err
	}
	var localQ float64
	if s.st.m2 > 0 {
		localQ = s.st.localModularity()
	}
	// Moved is already a world total: the clustering loop reduced it.
	stats, err := comm.AllreduceUpdateStats(s.c, comm.UpdateStats{
		Touched: s.drainSeen(),
		Q:       localQ,
	})
	if err != nil {
		return zero, err
	}
	s.q = stats.Q
	s.driftQ += math.Abs(s.q - qBefore)
	s.driftTouch += float64(stats.Touched) / float64(s.n)
	return UpdateResult{
		Moved:    res.Moved,
		Touched:  stats.Touched,
		Q:        s.q,
		Iters:    res.Iters,
		NeedFull: s.driftQ > s.opt.DriftQ || s.driftTouch > s.opt.DriftTouched,
	}, nil
}

// drainSeen counts and clears the stage's evaluated marks: the distinct
// vertices this batch's sweeps re-examined, each hub counted by its owner.
// Armed flags deliberately survive across batches: label changes in a
// batch's final iteration arm neighbours that the next batch's sweep picks
// up.
func (s *Session) drainSeen() int64 {
	seen, n := s.st.seen, int64(0)
	for _, u := range s.sg.Owned {
		if seen[u] {
			seen[u] = false
			n++
		}
	}
	for _, h := range s.sg.Hubs {
		if seen[h] {
			seen[h] = false
			if s.owns(h) {
				n++
			}
		}
	}
	return n
}

// applyOps mutates the subgraph and the stage's bookkeeping for one
// replicated batch. Every rank applies the identical ops in the identical
// order to its own share, so no agreement is needed; aggregate corrections
// go through the delta ledger and are flushed once per batch.
func (s *Session) applyOps(ops []EdgeOp) {
	st := s.st
	for _, op := range ops {
		s.applyArc(op.U, op.V, op.W, op.Del)
		s.applyArc(op.V, op.U, op.W, op.Del)
		dw := op.W
		if op.Del {
			dw = -op.W
		}
		s.adjustDegree(op.U, dw)
		s.adjustDegree(op.V, dw)
		st.m2 += 2 * dw
		s.sg.TotalWeight2 += 2 * dw
	}
}

// applyArc places or removes the directed arc x→y. Placement is
// deterministic: a low vertex's arcs live with its owner (complete
// adjacency); a hub's inserted arc goes to rank y%p's share (which owns y,
// so hub inserts never create ghosts). Deletion removes every matching
// entry in whatever share holds one — an edge inserted after partitioning
// may live on a different rank than its Build-time twin, and the kernels
// only ever sum entries, so entry multiplicity is benign.
func (s *Session) applyArc(x, y int, w float64, del bool) {
	sg, st := s.sg, s.st
	if hi, hub := st.hubIndex(x); hub {
		if del {
			sg.AdjHub[hi] = dropArcs(sg.AdjHub[hi], y)
		} else if s.owns(y) {
			sg.AdjHub[hi] = upsertArc(sg.AdjHub[hi], y, w)
		}
		return
	}
	i, ok := sg.OwnedIndex(x)
	if !ok {
		return
	}
	if del {
		sg.AdjOwned[i] = dropArcs(sg.AdjOwned[i], y)
		// The ghost entry and its subscription (if y became unreferenced)
		// are left in place: a stale ghost only costs its label refresh,
		// and the next full solve rebuilds the sets exactly.
		return
	}
	sg.AdjOwned[i] = upsertArc(sg.AdjOwned[i], y, w)
	if _, hub := st.hubIndex(y); hub {
		st.addRev(y, x)
		return
	}
	if !s.owns(y) {
		sg.AddGhost(y)
		st.addRev(y, x)
		if st.comm[y] < 0 {
			s.newGhosts = append(s.newGhosts, y)
		}
	}
}

// adjustDegree applies a weighted-degree change to vertex x: the replicated
// hub table on every rank, the owned table on x's owner. The owner also
// feeds x's community aggregate through the delta ledger, and — for the
// low-vertex case — registers any new cross-rank subscription implied by
// the batch (derivable locally because the batch is replicated).
func (s *Session) adjustDegree(x int, dw float64) {
	st, sg := s.st, s.sg
	if hi, hub := st.hubIndex(x); hub {
		sg.HubWDeg[hi] += dw
		if s.owns(x) {
			st.addDelta(int(st.comm[x]), dw, 0)
		}
		return
	}
	if i, ok := sg.OwnedIndex(x); ok {
		sg.OwnedWDeg[i] += dw
		st.addDelta(int(st.comm[x]), dw, 0)
	}
}

// registerSubscriptions walks a batch once more on the *owner* side: for
// every inserted arc x→y where x is a low vertex owned remotely and y is a
// low vertex owned here, rank x%p now holds y as a ghost, so this rank must
// push y's future label changes there.
func (s *Session) registerSubscriptions(ops []EdgeOp) {
	for _, op := range ops {
		if op.Del {
			continue
		}
		s.subscribeFor(op.U, op.V)
		s.subscribeFor(op.V, op.U)
	}
}

// subscribeFor handles the arc x→y for the owner of y.
func (s *Session) subscribeFor(x, y int) {
	if !s.owns(y) {
		return
	}
	if _, hub := s.st.hubIndex(y); hub {
		return
	}
	if _, hub := s.st.hubIndex(x); hub {
		return // hub arcs to y live on this rank already
	}
	if r := ownerOf(x, s.p); r != s.rnk {
		s.sg.Subscribe(y, r)
	}
}

// resolveNewGhosts fetches labels for ghosts discovered by this batch from
// their owners. All ranks call it every batch (the exchange is collective)
// even when their own list is empty.
func (s *Session) resolveNewGhosts() error {
	st := s.st
	labels, err := st.resolveQueries(s.newGhosts, func(v int) int { return int(st.comm[v]) })
	if err != nil {
		return err
	}
	for i, g := range s.newGhosts {
		if labels[i] < 0 || labels[i] >= s.n {
			return fmt.Errorf("core: rank %d: owner of new ghost %d answered community %d outside [0,%d)", s.rnk, g, labels[i], s.n)
		}
		st.comm[g] = int32(labels[i])
		st.watch(labels[i]) // registered by the flush that follows in ApplyUpdates
	}
	return nil
}

// seedFromOps arms every vertex within Options.UpdateKHops hops of a
// changed edge: a distributed BFS of exactly k synchronized rounds (one
// all-to-all per round, so all ranks stay collective-symmetric). Reached
// low vertices are routed to their owners; reached hubs are broadcast so
// every rank expands its local share of the hub's arcs. All set insertions
// are idempotent, so arrival order cannot affect the resulting active set.
func (s *Session) seedFromOps(ops []EdgeOp) error {
	st, sg := s.st, s.sg
	var frontier []int    // owned low vertices to expand next round
	var hubFrontier []int // hub indices to expand next round
	reach := func(x int) {
		if s.bfsMark[x] {
			return
		}
		s.bfsMark[x] = true
		s.bfsList = append(s.bfsList, x)
		if hi, hub := st.hubIndex(x); hub {
			st.hubActive[hi] = true
			hubFrontier = append(hubFrontier, hi)
			return
		}
		if s.owns(x) {
			st.active[x] = true
			frontier = append(frontier, x)
		}
	}
	// Hop 0: the endpoints (replicated, so every rank marks hubs and its
	// own vertices without any exchange).
	for _, op := range ops {
		reach(op.U)
		reach(op.V)
	}
	targets := make([][]int, s.p)
	for hop := 0; hop < s.opt.UpdateKHops; hop++ {
		for r := range targets {
			targets[r] = targets[r][:0]
		}
		route := func(t int) {
			if _, hub := st.hubIndex(t); hub {
				for r := 0; r < s.p; r++ {
					targets[r] = append(targets[r], t)
				}
				return
			}
			o := ownerOf(t, s.p)
			targets[o] = append(targets[o], t)
		}
		for _, u := range frontier {
			if i, ok := sg.OwnedIndex(u); ok {
				for _, a := range sg.AdjOwned[i] {
					if a.To != u {
						route(a.To)
					}
				}
			}
		}
		for _, hi := range hubFrontier {
			for _, a := range sg.AdjHub[hi] {
				if a.To != sg.Hubs[hi] {
					route(a.To)
				}
			}
		}
		frontier = frontier[:0]
		hubFrontier = hubFrontier[:0]
		bufs := st.sendScratch()
		for r := 0; r < s.p; r++ {
			ts := targets[r]
			sort.Ints(ts)
			// In-place dedup: repeated targets within a round are common
			// (shared neighborhoods) and pure overhead on the wire.
			out := ts[:0]
			for j, t := range ts {
				if j > 0 && ts[j-1] == t {
					continue
				}
				out = append(out, t)
			}
			targets[r] = out
			st.sendBufs[r].PutInts(out)
			bufs[r] = st.sendBufs[r].Bytes()
		}
		in, err := st.alltoallv(bufs)
		if err != nil {
			return err
		}
		for r := 0; r < s.p; r++ {
			rd := wire.NewReader(in[r])
			for _, t := range rd.Ints() {
				reach(t)
			}
			if err := rd.Err(); err != nil {
				return err
			}
		}
	}
	// Reset the visited set for the next batch (O(visited)).
	for _, v := range s.bfsList {
		s.bfsMark[v] = false
	}
	s.bfsList = s.bfsList[:0]
	return nil
}

// upsertArc returns a copy of adj with weight w added to the entry for y
// (appended if absent). Copy-on-write keeps Build's pristine adjacency —
// possibly shared with other Subgraph clones — untouched.
func upsertArc(adj []partition.Arc, y int, w float64) []partition.Arc {
	out := append([]partition.Arc(nil), adj...)
	for j := range out {
		if out[j].To == y {
			out[j].W += w
			return out
		}
	}
	return append(out, partition.Arc{To: y, W: w})
}

// dropArcs returns a copy of adj with every entry for y removed.
func dropArcs(adj []partition.Arc, y int) []partition.Arc {
	out := make([]partition.Arc, 0, len(adj))
	for _, a := range adj {
		if a.To != y {
			out = append(out, a)
		}
	}
	return out
}
