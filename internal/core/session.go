package core

import (
	"errors"
	"fmt"
	"slices"
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
// The batch path (core.Run / core.RunRankLayout) constructs a Session and calls
// solve(), the hierarchical solve of Algorithm 1; the Session adds no
// collectives and no state to that path.
//
// The Session is the one place vertex IDs cross the partition boundary: the
// solver sees only π-IDs, and the Session maps the IDs it reports back
// with its part's π⁻¹ table and an update batch's IDs in with its π table
// (Subgraph.Pi, Subgraph.PiInv: one pair per Layout, shared by its ranks).
//
// The serving path calls Solve(), which additionally installs a resident
// flat stage over the original graph: the converged hierarchy is projected
// back to a single community assignment in original-vertex space (community
// IDs are representative vertices — the minimum π-ID of each final
// community, so community c stays owned by rank c mod p). The
// Session then stays resident, across worlds (Attach), reporting its labels
// (Tracked) and applying batched edge updates with ApplyUpdates, which
// re-clusters *incrementally*: it is the batch solver's clustering loop and
// sweep on a stage that starts with nothing armed, where only the seed
// vertices the caller names are armed in the stage's active set (state.go).
//
// Which vertices to seed and when incremental quality has drifted far
// enough to re-solve are the serving driver's policy (internal/dserver);
// Solve() on the mutated subgraphs is the full-solve fallback.
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

	stop StopRule // how long each stage of solve() runs

	st  *stage   // resident flat stage; nil until Solve() installs it
	out *rankOut // result of the last hierarchical solve

	q float64 // current global modularity (replicated)

	newGhosts []int // ghosts discovered by the current batch, labels pending
}

// EdgeOp is one edge mutation of an update batch. U and V are the input
// graph's vertex IDs (U != V; the ID space is fixed at partitioning time);
// ApplyUpdates maps them into π-space. Insert adds W
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
}

// NewSession wraps a rank's subgraph for solving and serving, and applies
// Options.CommDeadline to c. The Session owns sg from here on: ApplyUpdates
// edits it in place, so a caller that still needs the layout's original
// parts builds a second layout (the batch path never mutates, so core.Run
// passes layout parts directly).
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
	if n := sg.GlobalVertices; len(sg.Pi) != n || len(sg.PiInv) != n {
		return nil, fmt.Errorf("core: subgraph's π tables hold %d and %d entries, want %d (a Layout part)", len(sg.Pi), len(sg.PiInv), n)
	}
	if opt.CommDeadline > 0 {
		// Endpoint-wide default deadline: every Recv of the run — including
		// those inside the collectives — fails with comm.ErrTimeout instead
		// of blocking forever once a peer stops responding. Transports
		// without deadline support keep unbounded blocking.
		comm.SetRecvTimeout(c, opt.CommDeadline)
	}
	return &Session{
		c:    c,
		sg:   sg,
		opt:  opt,
		n:    sg.GlobalVertices,
		p:    c.Size(),
		rnk:  c.Rank(),
		stop: defaultStop,
	}, nil
}

// owns reports whether this rank owns vertex (or community) id.
func (s *Session) owns(id int) bool { return partition.Owner(id, s.p) == s.rnk }

// Close drops the resident stage. Local (no collectives); the Session is
// unusable afterwards.
func (s *Session) Close() {
	s.st = nil
}

// Solve runs the full hierarchical solve on the current subgraph and
// installs the resident serving state. It is both the initial solve and the
// fallback: calling Solve on every rank after updates re-clusters the
// mutated graph from scratch (the partition layout — ownership and the
// delegate set — is kept; re-partitioning requires a fresh world).
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
	tracked := append([]int(nil), sg.Owned...)
	for _, h := range sg.Hubs {
		if s.owns(h) {
			tracked = append(tracked, h)
		}
	}
	cur := append([]int(nil), tracked...) // current coarse vertex of each tracked original vertex

	st := newStage(c, sg, opt)
	st.tau = s.stop.tau(0)
	cs := st // the live stage
	t1 := trace.Now()
	res1, err := st.clusterNew()
	if err != nil {
		return nil, err
	}
	out := &rankOut{
		tracked:     tracked,
		stage1Iters: res1.Iters,
		qtrace:      append([]float64(nil), res1.QTrace...),
		finalQ:      res1.Q,
		outer:       1,
		stage1NS:    int64(trace.Since(t1)),
		sim1NS:      res1.SimNS,
		comm1NS:     res1.CommSimNS,
		bd:          st.bd,
		busyBD:      st.workBreakdown(),
	}
	out.workUnits += st.work

	// Current global vertex count (needed to detect a no-op merge): every
	// vertex is owned by one rank or is a hub, so it is the graph's n.
	curCount := sg.GlobalVertices

	t2 := trace.Now()
	defer func() {
		out.stage2NS = int64(trace.Since(t2))
		out.sent = *st.sent // every stage of the solve charges st's tally
	}()

	prevQ := res1.Q
	snapshot := func() {
		if opt.TrackLevels {
			out.levels = append(out.levels, append([]int(nil), cur...))
		}
	}
	for {
		newSG, k, err := cs.merge()
		if err != nil {
			return nil, err
		}
		cur, err = cs.resolveQueries(cur, cur, k, func(x int) int { return int(cs.dense[cs.comm[x]]) })
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

		st2 := nextStage(cs, c, newSG, opt) // cs is done: st2 reuses its storage
		st2.tau = s.stop.tau(out.outer)     // out.outer stages ran: this is level out.outer
		r2, err := st2.clusterNew()
		if err != nil {
			return nil, err
		}
		cs = st2
		out.workUnits += st2.work
		out.outer++
		out.qtrace = append(out.qtrace, r2.QTrace...)
		out.finalQ = r2.Q
		out.sim2NS += r2.SimNS
		out.comm2NS += r2.CommSimNS
		if r2.Q-prevQ < minGain {
			// Keep this stage's (possibly tiny) improvement, then stop.
			cur, err = cs.resolveQueries(cur, cur, cs.n, func(x int) int { return int(cs.comm[x]) })
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
// global minimum π-ID of each final community. That keeps
// community c owned by rank c mod p (the invariant every aggregate exchange
// relies on) without a separate community ID space. Two collectives compute
// the representatives, then the stage is rebuilt with exact aggregates, a
// third fetches the labels of other ranks' hubs and of the ghosts from their
// owners.
func (s *Session) install() error {
	tracked, labels := s.out.tracked, s.out.labels

	// Exchange 1: representative of each final community label L = the
	// minimum tracked vertex with that label, computed at rank L%p.
	// Min-combine is order-independent, so callback order cannot matter.
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
		b := bufs[partition.Owner(l, s.p)]
		b.PutVarint(int64(l))
		b.PutVarint(int64(localMin[l]))
	}
	for r := range bufs {
		outBufs[r] = bufs[r].Bytes()
	}
	// A pair names a label this rank owns and a vertex, both in [0, n).
	repOf := make(map[int]int)
	err := comm.AlltoallvFunc(s.c, outBufs, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		for rd.Remaining() > 0 {
			l, v := rd.Varint(), rd.Varint()
			if rd.Err() != nil {
				return frameErr(s.rnk, "representative", src, rd.Err())
			}
			if l < 0 || l >= int64(s.n) || !s.owns(int(l)) || v < 0 || v >= int64(s.n) {
				return frameErr(s.rnk, "representative", src, nil)
			}
			if m, ok := repOf[int(l)]; !ok || int(v) < m {
				repOf[int(l)] = int(v)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Fresh flat stage over the (possibly mutated) original subgraph.
	st := newStage(s.c, s.sg, s.opt)
	s.st = st

	// Exchange 2: resolve every tracked vertex's label to its representative.
	reps, err := st.resolveQueries(nil, labels, s.n, func(l int) int { return repOf[l] })
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
		var k int64
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

	// Every other label this rank holds — the hubs it does not own, then
	// its ghosts — comes from the vertex's owner, which set it above. Both
	// legs of the lookup are checked like any other peer frame.
	var held []int
	for _, h := range s.sg.Hubs {
		if !st.owns(h) {
			held = append(held, h)
		}
	}
	held = append(held, s.sg.Ghosts...)
	heldReps, err := st.resolveQueries(nil, held, s.n, func(v int) int { return int(st.comm[v]) })
	if err != nil {
		return err
	}
	for i, v := range held {
		st.comm[v] = int32(heldReps[i])
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
	// edgeless graph — m2 is replicated, so every rank skips together), from
	// the full scans: the labels were written wholesale.
	st.seedQ()
	var q float64
	if st.m2 > 0 {
		if q, err = st.globalModularity(); err != nil {
			return err
		}
	}
	s.q = q

	// The installed state is the converged one: nothing is armed until an
	// update batch seeds its neighbourhood.
	st.setActive(false)
	return nil
}

// Modularity returns the current global modularity (replicated; valid after
// Solve).
func (s *Session) Modularity() float64 { return s.q }

// Attach rebinds the Session, and its resident stage, to c: this rank's
// endpoint in a new world of the same size. It applies
// Options.CommDeadline to c. The serving layer runs every mutation in a
// fresh world over the same Sessions; local (no collectives).
func (s *Session) Attach(c comm.Comm) error {
	if c.Rank() != s.rnk || c.Size() != s.p {
		return fmt.Errorf("core: session of rank %d/%d cannot attach endpoint %d/%d", s.rnk, s.p, c.Rank(), c.Size())
	}
	s.c = c
	if s.st != nil {
		s.st.c = c
	}
	if s.opt.CommDeadline > 0 {
		comm.SetRecvTimeout(c, s.opt.CommDeadline)
	}
	return nil
}

// Tracked returns the input vertices this rank reports and their current
// community labels (representative vertices, not normalized). Right after
// Solve each label is a member of its community; ApplyUpdates can move that
// member out. The caller gathers all ranks' pieces to assemble a full
// membership.
func (s *Session) Tracked() (vertices, labels []int) {
	if s.st == nil {
		return nil, nil
	}
	vertices = make([]int, len(s.out.tracked))
	labels = make([]int, len(vertices))
	for i, x := range s.out.tracked {
		vertices[i], labels[i] = int(s.sg.PiInv[x]), int(s.sg.PiInv[s.st.comm[x]])
	}
	return vertices, labels
}

// ValidateOps checks an update batch against the Session's ID space and
// the fixed point: in-range endpoints, no self-loops, nonzero weights
// partition.Quantise accepts (else an error wrapping partition.ErrWeight)
// and a 2m within partition.MaxWeight2. It does not check edge existence —
// that is the serving driver's ledger's job.
func (s *Session) ValidateOps(ops []EdgeOp) error {
	m2 := s.sg.TotalWeight2
	for i, op := range ops {
		if op.U < 0 || op.U >= s.n || op.V < 0 || op.V >= s.n {
			return fmt.Errorf("core: op %d: vertex out of range [0,%d): %d-%d", i, s.n, op.U, op.V)
		}
		if op.U == op.V {
			return fmt.Errorf("core: op %d: self-loop %d-%d not supported", i, op.U, op.V)
		}
		w, err := partition.Quantise(op.W)
		if err == nil && w == 0 {
			err = errors.New("want > 0")
		}
		if op.Del {
			w = -w
		}
		if err == nil && w > (partition.MaxWeight2-m2)/2 {
			err = fmt.Errorf("%w: 2m past %d units", partition.ErrWeight, partition.MaxWeight2)
		}
		if err != nil {
			return fmt.Errorf("core: op %d: weight %g: %w", i, op.W, err)
		}
		m2 += 2 * w
	}
	return nil
}

// ApplyUpdates applies one replicated batch of edge mutations and
// re-clusters incrementally: the seed vertices are armed, and the stage's
// clustering loop runs from that active set until no vertex moves. Every
// rank must call it with the identical, pre-validated batch and the
// identical seeds (the serving driver passes the k-hop ball around the
// batch's endpoints), in input IDs.
func (s *Session) ApplyUpdates(ops []EdgeOp, seeds []int) (UpdateResult, error) {
	var zero UpdateResult
	if s.st == nil {
		return zero, fmt.Errorf("core: ApplyUpdates before Solve")
	}
	if err := s.ValidateOps(ops); err != nil {
		return zero, err
	}
	pi := s.sg.Pi
	armed := make([]int, len(seeds))
	for i, v := range seeds {
		if v < 0 || v >= s.n {
			return zero, fmt.Errorf("core: seed %d out of range [0,%d)", v, s.n)
		}
		armed[i] = int(pi[v])
	}
	ops = append([]EdgeOp(nil), ops...)
	for i := range ops {
		ops[i].U, ops[i].V = int(pi[ops[i].U]), int(pi[ops[i].V])
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
	// The batch rewrote arcs: the reverse index and sumIn start again.
	s.st.buildRev()
	s.st.seedQ()
	s.arm(armed)
	res, err := s.st.cluster()
	if err != nil {
		return zero, err
	}
	// Moved and Q are already world values: the clustering loop's last
	// AllreduceIterStats reduced them from the state the loop left (Q is 0
	// on an edgeless graph). The touched count is the batch's one reduction.
	touched, err := comm.AllreduceInt64Sum(s.c, s.drainSeen())
	if err != nil {
		return zero, err
	}
	s.q = res.Q
	return UpdateResult{Moved: res.Moved, Touched: touched, Q: s.q, Iters: res.Iters}, nil
}

// arm sets the stage's flags for the seeds: an owned vertex on its owner, a
// hub on every rank. Arming is a set insertion, so seed order is irrelevant.
func (s *Session) arm(seeds []int) {
	for _, v := range seeds {
		if hi, hub := s.st.hubIndex(v); hub {
			s.st.hubActive[hi] = true
		} else if s.owns(v) {
			s.st.active[v] = true
		}
	}
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
// replicated, validated batch. Every rank applies the identical ops in the
// identical order to its own share, so no agreement is needed; aggregate
// corrections go through the delta ledger and are flushed once per batch.
func (s *Session) applyOps(ops []EdgeOp) {
	st := s.st
	for _, op := range ops {
		dw, _ := partition.Quantise(op.W) // ValidateOps accepted it
		s.applyArc(op.U, op.V, dw, op.Del)
		s.applyArc(op.V, op.U, dw, op.Del)
		if op.Del {
			dw = -dw
		}
		s.adjustDegree(op.U, dw)
		s.adjustDegree(op.V, dw)
		st.m2 += 2 * dw
		s.sg.TotalWeight2 += 2 * dw
	}
}

// applyArc places or removes the directed arc x→y of weight w. Placement
// is deterministic: a low vertex's arcs live with its owner (complete
// adjacency); a hub's inserted arc goes to rank y%p's share (which owns y,
// so hub inserts never create ghosts). Deletion removes every matching
// entry in whatever share holds one — an edge inserted after partitioning
// may live on a different rank than its Build-time twin, and the kernels
// only ever sum entries, so entry multiplicity is benign.
func (s *Session) applyArc(x, y int, w int64, del bool) {
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
	if _, hub := st.hubIndex(y); !hub && !s.owns(y) {
		sg.AddGhost(y)
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
func (s *Session) adjustDegree(x int, dw int64) {
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
	if r := partition.Owner(x, s.p); r != s.rnk {
		s.sg.Subscribe(y, r)
	}
}

// resolveNewGhosts fetches labels for ghosts discovered by this batch from
// their owners. All ranks call it every batch (the exchange is collective)
// even when their own list is empty.
func (s *Session) resolveNewGhosts() error {
	st := s.st
	labels, err := st.resolveQueries(nil, s.newGhosts, s.n, func(v int) int { return int(st.comm[v]) })
	if err != nil {
		return err
	}
	for i, g := range s.newGhosts {
		st.comm[g] = int32(labels[i])
		st.watch(labels[i]) // registered by the flush that follows in ApplyUpdates
	}
	return nil
}

// upsertArc adds weight w to adj's entry for y (appended if absent) in
// place: the row belongs to this Session's part alone.
func upsertArc(adj []partition.Arc, y int, w int64) []partition.Arc {
	for j := range adj {
		if adj[j].To == y {
			adj[j].W += w
			return adj
		}
	}
	return append(adj, partition.Arc{To: y, W: w})
}

// dropArcs removes every entry for y from adj in place.
func dropArcs(adj []partition.Arc, y int) []partition.Arc {
	return slices.DeleteFunc(adj, func(a partition.Arc) bool { return a.To == y })
}
