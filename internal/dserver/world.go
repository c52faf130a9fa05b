// Package dserver hosts a resident clustering service: the partitioned graph
// and the converged communities stay in memory after the initial solve, and
// queries and edge updates are answered without re-ingesting anything.
//
// A World is one core.Session per rank and one immutable snapshot that
// answers every read. The snapshot holds the edge ledger: one arc slice per
// vertex, in the sessions' fixed-point weights. A mutation (the initial solve, Update,
// Resolve) runs in a fresh in-process world: comm.RunWorld starts one
// goroutine per rank, each attaches its stored Session to the new endpoint,
// and all run the same collective step. The serving policy is the World's:
// an update re-clusters incrementally from the vertices within KHops of the
// changed edges, a walk over the ledger, and past the drift thresholds the
// world falls back to a full solve (in the same call with AutoResolve).
// Then the world has exited, and a new snapshot with the committed ledger is
// published: no goroutine outlives the call.
//
// All methods are safe for concurrent use. Mutations serialize behind one
// mutex; reads take no lock and load the current snapshot, so no read waits
// for a solve. A mutation that fails on any rank latches the world as
// failed: the ledger keeps its last commit and every later call answers the
// error.
package dserver

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Options configures a World.
type Options struct {
	// Core is passed to every rank's core.Session. P must match the world
	// size (0 adopts P below). DHigh <= 0 leaves the hub threshold to the
	// partitioner, as core.Run does.
	Core core.Options
	// P is the number of resident ranks.
	P int
	// AutoResolve makes Update run the full-solve fallback in the same
	// call whenever the incremental pass crosses a drift threshold. When
	// false the caller sees NeedFull and decides when to call Resolve.
	AutoResolve bool
	// KHops seeds an update's re-clustering with the vertices within this
	// many hops of its endpoints (hop 0); <= 0 means 2. More hops come
	// closer to full-solve quality, and to full-solve cost.
	KHops int
	// DriftQ and DriftTouched are the thresholds on Stats.DriftQ and
	// Stats.DriftTouch past which an update reports NeedFull; <= 0 means
	// 0.05 and 0.35.
	DriftQ, DriftTouched float64
}

// Stats is a snapshot of the world's serving counters.
type Stats struct {
	Batches     int64 // update batches applied
	Incremental int64 // batches answered by the incremental path alone
	Full        int64 // full-solve fallbacks (including explicit Resolve calls)
	Ops         int64 // edge operations applied
	Edges       int64 // current edge count in the ledger
	Modularity  float64
	DriftQ      float64 // |ΔQ| summed over the incremental batches since the last full solve
	DriftTouch  float64 // their touched-vertex fractions, summed
}

// UpdateOutcome reports one Update call. Its Q is the modularity the call
// published: the fallback's when Full.
type UpdateOutcome struct {
	core.UpdateResult
	// NeedFull reports that the drift crossed DriftQ or DriftTouched.
	NeedFull bool
	// Full is true when this call ran the full-solve fallback (AutoResolve).
	Full bool
}

// Op is one requested edge mutation. Inserts carry W > 0 and accumulate
// onto an existing edge; deletes ignore W (the ledger supplies the full
// current weight) and remove the edge entirely.
type Op = core.EdgeOp

// World is the resident service. mu serializes the mutations (Update,
// Resolve, Close), which alone touch sessions and publish snap; reads load
// snap.
type World struct {
	p   int
	n   int
	opt Options // the serving policy, defaults applied

	mu       sync.Mutex
	sessions []*core.Session // one per rank; nil once closed

	snap atomic.Pointer[snapshot]
}

// snapshot is what every read answers from. It is never modified after
// publication: a commit clones the outer ledger slice and replaces the rows
// it changes, so a row is shared by every snapshot that has it.
type snapshot struct {
	labels []int32           // community label (representative vertex) of every vertex
	adj    [][]partition.Arc // the ledger: v's arcs, sorted by target
	stats  Stats             // Edges counts adj's undirected edges, self-loops once
	err    error             // sticky: the world failed or was closed
}

// runWorld runs one mutation's world. Tests swap in comm.RunWorldChaos.
var runWorld = comm.RunWorld

// New builds the world from g, solves it, and leaves the sessions resident.
func New(g *graph.Graph, opt Options) (*World, error) {
	p := opt.P
	if p <= 0 {
		p = opt.Core.P
	}
	if p <= 0 {
		p = 1
	}
	copt := opt.Core
	copt.P = p
	// The same mapping core.Run uses, so a served world and a batch run
	// over the same graph see the same partition (and the same answer).
	layout, err := partition.Build(g, copt.PartitionOptions())
	if err != nil {
		return nil, err
	}

	opt.KHops = cmp.Or(max(opt.KHops, 0), 2)
	opt.DriftQ = cmp.Or(max(opt.DriftQ, 0), 0.05)
	opt.DriftTouched = cmp.Or(max(opt.DriftTouched, 0), 0.35)
	w := &World{p: p, n: g.NumVertices(), opt: opt, sessions: make([]*core.Session, p)}
	err = w.run(func(c comm.Comm) error {
		s, err := core.NewSession(c, layout.Parts[c.Rank()].CloneForServing(), copt)
		if err != nil {
			return err
		}
		w.sessions[c.Rank()] = s
		return s.Solve()
	})
	if err != nil {
		return nil, err
	}
	w.publish(Stats{Edges: g.NumEdges()}, ledger(g))
	return w, nil
}

// ledger lays out g's CSR rows as the edge ledger. The rows are sorted by
// target with duplicates combined and a self-loop as one arc, and each
// weight is quantised as partition.Build quantised it (Build accepted every
// one), so the ledger holds exactly what the sessions hold.
func ledger(g *graph.Graph) [][]partition.Arc {
	flat := make([]partition.Arc, g.NumArcs())
	adj := make([][]partition.Arc, g.NumVertices())
	for u := range adj {
		lo, hi := g.ArcRange(u)
		ts, ws := g.Neighbors(u)
		for j, t := range ts {
			q, _ := partition.Quantise(ws[j])
			flat[lo+int64(j)] = partition.Arc{To: int(t), W: q}
		}
		adj[u] = flat[lo:hi:hi]
	}
	return adj
}

// run executes step on every rank of a fresh world. Of the ranks' errors it
// returns the lowest rank's that is not ErrPeerDown, the echo the others see
// once a failed rank has left, so the reply names the cause on one line.
func (w *World) run(step func(c comm.Comm) error) error {
	err := runWorld(w.p, func(c comm.Comm) error {
		if err := step(c); err != nil {
			return fmt.Errorf("dserver: rank %d: %w", c.Rank(), err)
		}
		return nil
	})
	j, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return err
	}
	for _, e := range j.Unwrap() {
		if !errors.Is(e, comm.ErrPeerDown) {
			return e
		}
	}
	return j.Unwrap()[0]
}

// each runs step on every stored session, attached to a fresh world, and
// latches a failure. Caller holds mu.
func (w *World) each(step func(rank int, s *core.Session) error) error {
	err := w.run(func(c comm.Comm) error {
		s := w.sessions[c.Rank()]
		if err := s.Attach(c); err != nil {
			return err
		}
		return step(c.Rank(), s)
	})
	if err != nil {
		// A rank stopped mid-collective, so the sessions may disagree:
		// the world answers nothing further.
		w.latch(err)
	}
	return err
}

// publish replaces the snapshot with the sessions' labels, the ledger adj,
// and st completed by rank 0's replicated Q, which it returns. Caller holds
// mu (or is New), so the sessions are quiescent.
func (w *World) publish(st Stats, adj [][]partition.Arc) float64 {
	labels := make([]int32, w.n)
	for _, s := range w.sessions {
		vertices, ls := s.Tracked()
		for i, v := range vertices {
			labels[v] = int32(ls[i])
		}
	}
	st.Modularity = w.sessions[0].Modularity()
	w.snap.Store(&snapshot{labels: labels, adj: adj, stats: st})
	return st.Modularity
}

// latch republishes the current snapshot with the sticky error err.
func (w *World) latch(err error) {
	s := *w.snap.Load()
	s.err = err
	w.snap.Store(&s)
}

// live returns the current snapshot, or the world's sticky error.
func (w *World) live() (*snapshot, error) {
	s := w.snap.Load()
	return s, s.err
}

// vertex returns the current snapshot after checking liveness and v.
func (w *World) vertex(v int) (*snapshot, error) {
	s, err := w.live()
	if err == nil && (v < 0 || v >= w.n) {
		err = fmt.Errorf("dserver: vertex %d out of range [0,%d)", v, w.n)
	}
	return s, err
}

// P returns the world size.
func (w *World) P() int { return w.p }

// CommunityOf returns vertex v's current community label (the representative
// vertex of its community).
func (w *World) CommunityOf(v int) (int, error) {
	s, err := w.vertex(v)
	if err != nil {
		return 0, err
	}
	return int(s.labels[v]), nil
}

// Neighborhood returns vertex v's current adjacency from the ledger: one arc
// per neighbor, sorted by target, in fixed-point weights.
func (w *World) Neighborhood(v int) ([]partition.Arc, error) {
	s, err := w.vertex(v)
	if err != nil {
		return nil, err
	}
	return slices.Clone(s.adj[v]), nil
}

// Modularity returns the current global modularity.
func (w *World) Modularity() (float64, error) {
	s, err := w.live()
	if err != nil {
		return 0, err
	}
	return s.stats.Modularity, nil
}

// Membership returns the full current membership, normalized to compact
// community IDs.
func (w *World) Membership() (graph.Membership, error) {
	s, err := w.live()
	if err != nil {
		return nil, err
	}
	m := make(graph.Membership, w.n)
	for v, c := range s.labels {
		m[v] = int(c)
	}
	m.Normalize()
	return m, nil
}

// Stats returns the serving counters of the current snapshot.
func (w *World) Stats() Stats { return w.snap.Load().stats }

// Update validates ops against the edge ledger, applies them on every rank
// as one replicated incremental batch seeded with the KHops ball around
// their endpoints, and (with AutoResolve) runs the full-solve fallback when
// drift crosses a threshold.
func (w *World) Update(ops []Op) (UpdateOutcome, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur, err := w.live()
	if err != nil {
		return UpdateOutcome{}, err
	}
	ops, adj, grown, err := w.stage(cur.adj, ops)
	if err != nil {
		return UpdateOutcome{}, err
	}
	seeds := w.seeds(adj, ops)
	var out UpdateOutcome
	err = w.each(func(rank int, s *core.Session) error {
		res, err := s.ApplyUpdates(ops, seeds)
		if err != nil {
			return err
		}
		// Every rank decides from its own replicated result.
		if _, _, need := w.drift(cur.stats, res); need && w.opt.AutoResolve {
			if err := s.Solve(); err != nil {
				return err
			}
		}
		if rank == 0 {
			out.UpdateResult = res
		}
		return nil
	})
	if err != nil {
		return UpdateOutcome{}, err
	}
	st := cur.stats
	st.Edges += grown
	st.Batches++
	st.Ops += int64(len(ops))
	st.DriftQ, st.DriftTouch, out.NeedFull = w.drift(st, out.UpdateResult)
	if out.Full = out.NeedFull && w.opt.AutoResolve; out.Full {
		st.Full++
		st.DriftQ, st.DriftTouch = 0, 0
	} else {
		st.Incremental++
	}
	out.Q = w.publish(st, adj)
	return out, nil
}

// seeds is the batch's seed set: every vertex within KHops hops of an
// endpoint of ops, walked breadth-first over adj, the ledger as the batch
// leaves it. The ranks' shares together hold exactly the ledger's arcs, so
// a walk over the shares would reach the same ball.
func (w *World) seeds(adj [][]partition.Arc, ops []Op) []int {
	seen := make(map[int]bool)
	var ball []int
	reach := func(v int) {
		if !seen[v] {
			seen[v] = true
			ball = append(ball, v)
		}
	}
	for _, op := range ops {
		reach(op.U)
		reach(op.V)
	}
	for hop, lo := 0, 0; hop < w.opt.KHops; hop++ {
		hi := len(ball)
		for _, u := range ball[lo:hi] {
			for _, a := range adj[u] {
				reach(a.To)
			}
		}
		lo = hi
	}
	return ball
}

// drift adds an incremental batch's |ΔQ| and touched fraction to the drift
// st carries since the last full solve; need reports a crossed threshold.
func (w *World) drift(st Stats, res core.UpdateResult) (dq, dt float64, need bool) {
	dq = st.DriftQ + math.Abs(res.Q-st.Modularity)
	dt = st.DriftTouch + float64(res.Touched)/float64(w.n)
	return dq, dt, dq > w.opt.DriftQ || dt > w.opt.DriftTouched
}

// Resolve forces the full-solve fallback now, resetting drift, and returns
// the modularity it published.
func (w *World) Resolve() (float64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur, err := w.live()
	if err != nil {
		return 0, err
	}
	if err := w.each(func(_ int, s *core.Session) error { return s.Solve() }); err != nil {
		return 0, err
	}
	st := cur.stats
	st.Full++
	st.DriftQ, st.DriftTouch = 0, 0
	return w.publish(st, cur.adj), nil
}

// stage validates ops against the ledger adj and prepares the replicated
// batch, a copy of ops whose deletes carry the edge's full current weight.
// The batch then passes the sessions' own gate (core.Session.ValidateOps),
// so one a rank would refuse is refused before any rank sees it. Nothing is
// committed: after is a copy of adj with a new row for every vertex the
// batch changes, grown the change in edge count. Caller holds mu.
func (w *World) stage(adj [][]partition.Arc, ops []Op) (batch []Op, after [][]partition.Arc, grown int64, err error) {
	after = slices.Clone(adj)
	private := make(map[int]bool) // rows of after this batch has copied
	find := func(u, v int) (int, bool) {
		return slices.BinarySearchFunc(after[u], v, func(a partition.Arc, t int) int { return cmp.Compare(a.To, t) })
	}
	// put sets arc u→v to wt in u's private row; wt 0 removes it.
	put := func(u, v int, wt int64) {
		if !private[u] {
			after[u], private[u] = slices.Clone(after[u]), true
		}
		switch i, found := find(u, v); {
		case found && wt == 0:
			after[u] = slices.Delete(after[u], i, i+1)
		case found:
			after[u][i].W = wt
		default:
			after[u] = slices.Insert(after[u], i, partition.Arc{To: v, W: wt})
		}
	}
	batch = slices.Clone(ops)
	for i, op := range batch {
		if op.U < 0 || op.U >= w.n || op.V < 0 || op.V >= w.n {
			return nil, nil, 0, fmt.Errorf("dserver: op %d: vertex out of range [0,%d)", i, w.n)
		}
		if op.U == op.V {
			return nil, nil, 0, fmt.Errorf("dserver: op %d: self-loop %d", i, op.U)
		}
		j, found := find(op.U, op.V)
		var cur int64
		if found {
			cur = after[op.U][j].W
		}
		if op.Del {
			if !found {
				return nil, nil, 0, fmt.Errorf("dserver: op %d: delete of absent edge (%d,%d)", i, op.U, op.V)
			}
			put(op.U, op.V, 0)
			put(op.V, op.U, 0)
			grown--
			batch[i].W = partition.Dequantise(cur)
			continue
		}
		q, _ := partition.Quantise(op.W) // a bad weight fails ValidateOps below
		put(op.U, op.V, cur+q)
		put(op.V, op.U, cur+q)
		if !found {
			grown++
		}
	}
	// Every rank holds the same 2m, so rank 0's session answers for all.
	if err := w.sessions[0].ValidateOps(batch); err != nil {
		return nil, nil, 0, fmt.Errorf("dserver: %w", err)
	}
	return batch, after, grown, nil
}

// Close drops the sessions; later calls answer "world closed" unless the
// world had failed. No goroutine runs between calls, so Close returns nil.
func (w *World) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.sessions {
		s.Close()
	}
	w.sessions = nil
	if w.snap.Load().err == nil {
		w.latch(errors.New("dserver: world closed"))
	}
	return nil
}
