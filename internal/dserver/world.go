// Package dserver hosts a resident clustering service: a world of ranks
// that stays up after the initial solve, keeping the partitioned graph and
// the converged communities in memory, and answering queries and edge
// updates without re-ingesting anything.
//
// The driver (World) owns the authoritative edge ledger and the public API;
// each rank runs a command loop around a core.Session. Queries that only
// need replicated or owner-local state (community-of-vertex, modularity)
// touch a single rank; updates are replicated batches that every rank
// applies through Session.ApplyUpdates, which re-clusters incrementally
// from the vertices within UpdateKHops of the changed edges. When the
// session reports drift past the configured thresholds the world falls
// back to a full solve (the quality oracle), in the same Update call when
// AutoResolve is set.
//
// All public methods are safe for concurrent use. Mutations (Update,
// Resolve) serialize behind the world's write lock so each replicated
// command reaches every rank exactly once and in the same order; queries
// never enter the command loop at all — the driver reads each rank's
// Session directly under that rank's read lock, so community and
// modularity lookups on idle ranks proceed concurrently with each other
// and even with an in-flight update that is busy on other ranks.
// Multi-rank reads (Neighborhood, Membership) take the world's read lock
// instead, which excludes updates and therefore sees a consistent
// cross-rank snapshot.
package dserver

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Options configures a World.
type Options struct {
	// Core is passed to every rank's core.Session. P must match the world
	// size (0 adopts P below). DHigh <= 0 gets the same default core.Run
	// applies: max(P, 4*arcs/vertices).
	Core core.Options
	// P is the number of resident ranks.
	P int
	// AutoResolve makes Update run the full-solve fallback in the same
	// call whenever the incremental pass crosses a drift threshold. When
	// false the caller sees NeedFull and decides when to call Resolve.
	AutoResolve bool
}

// Stats is a snapshot of the world's serving counters.
type Stats struct {
	Batches     int64 // update batches applied
	Incremental int64 // batches answered by the incremental path alone
	Full        int64 // full-solve fallbacks (including explicit Resolve calls)
	Ops         int64 // edge operations applied
	Edges       int64 // current edge count in the ledger
	Modularity  float64
	DriftQ      float64
	DriftTouch  float64
}

// UpdateOutcome reports one Update call.
type UpdateOutcome struct {
	core.UpdateResult
	// Full is true when this call ran the full-solve fallback (AutoResolve).
	Full bool
}

// Op is one requested edge mutation. Inserts carry W > 0 and accumulate
// onto an existing edge; deletes ignore W (the ledger supplies the full
// current weight) and remove the edge entirely.
type Op struct {
	U, V int
	W    float64
	Del  bool
}

type cmdKind int

// Only mutating, collective operations flow through the command loop;
// queries read the sessions directly.
const (
	cmdUpdate cmdKind = iota
	cmdSolve
)

type rankReply struct {
	rank int
	err  error
	res  core.UpdateResult
	q    float64
}

type command struct {
	kind  cmdKind
	ops   []core.EdgeOp
	reply chan rankReply
}

// World is the resident service: p rank goroutines inside a comm.RunWorld,
// plus the driver state (edge ledger, counters) guarded by mu.
//
// Lock order (always acquire left to right): mu → gmu → rankMu[r].
//   - mu (RW): writers are Update/Resolve/Close; multi-rank readers
//     (Neighborhood, Membership, Stats) hold it shared.
//   - gmu (RW): liveness guard (failed/closed). Every direct session read
//     holds it shared for its whole duration so shutdown — which closes
//     the sessions — cannot begin mid-read.
//   - rankMu[r] (RW): rank r's session state. The rank goroutine takes the
//     write lock around each command it executes (and around the final
//     session close); single-rank queries take the read lock, so they
//     only ever wait on their own rank's in-flight work.
type World struct {
	p           int
	n           int
	autoResolve bool

	mu    sync.RWMutex
	cmds  []chan *command
	edges map[uint64]int64 // edge weights in the sessions' fixed-point units
	stats Stats

	gmu    sync.RWMutex
	closed bool
	failed error // sticky: first rank error wires the world shut

	rankMu   []sync.RWMutex
	sessions []*core.Session // filled by the rank loops before ready

	runErr chan error
}

// New builds the world from g, solves it, and leaves the ranks resident.
// It returns once every rank has converged and is accepting commands.
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
	layout, err := partition.Build(g, copt.PartitionOptions(g.NumVertices(), g.NumArcs()))
	if err != nil {
		return nil, err
	}
	copt.DHigh = layout.DHigh

	w := &World{
		p:           p,
		n:           g.NumVertices(),
		autoResolve: opt.AutoResolve,
		cmds:        make([]chan *command, p),
		edges:       make(map[uint64]int64, g.NumEdges()),
		rankMu:      make([]sync.RWMutex, p),
		sessions:    make([]*core.Session, p),
		runErr:      make(chan error, 1),
	}
	for _, e := range g.Edges() {
		q, _ := partition.Quantise(e.W) // Build accepted every weight
		w.edges[edgeKey(e.U, e.V)] += q
	}
	for r := range w.cmds {
		w.cmds[r] = make(chan *command, 1)
	}

	ready := make(chan error, p)
	go func() {
		w.runErr <- comm.RunWorld(p, func(c comm.Comm) error {
			return w.rankLoop(c, layout, copt, ready)
		})
	}()
	for r := 0; r < p; r++ {
		if err := <-ready; err != nil {
			// Drain the world: close the command channels so healthy ranks
			// exit their loops, then wait for RunWorld to join.
			w.mu.Lock()
			w.gmu.Lock()
			w.shutdownGLocked()
			w.gmu.Unlock()
			w.mu.Unlock()
			<-w.runErr
			return nil, err
		}
	}
	w.mu.Lock()
	w.refreshStatsLocked()
	w.mu.Unlock()
	return w, nil
}

func (w *World) rankLoop(c comm.Comm, layout *partition.Layout, copt core.Options, ready chan<- error) error {
	rank := c.Rank()
	ses, err := core.NewSession(c, layout.Parts[rank].CloneForServing(), copt)
	if err != nil {
		ready <- err
		return err
	}
	// The close must exclude concurrent direct readers of this rank's
	// session, exactly like a command.
	defer func() {
		w.rankMu[rank].Lock()
		ses.Close()
		w.rankMu[rank].Unlock()
	}()
	if err := ses.Solve(); err != nil {
		ready <- err
		return err
	}
	// Publish the session for direct driver-side reads. The ready send
	// orders this before any query New's caller can issue.
	w.sessions[rank] = ses
	ready <- nil
	for cmd := range w.cmds[rank] {
		w.rankMu[rank].Lock()
		rep := rankReply{rank: rank}
		switch cmd.kind {
		case cmdUpdate:
			rep.res, rep.err = ses.ApplyUpdates(cmd.ops)
		case cmdSolve:
			rep.err = ses.Solve()
		}
		rep.q = ses.Modularity()
		w.rankMu[rank].Unlock()
		cmd.reply <- rep
		if rep.err != nil {
			return rep.err
		}
	}
	return nil
}

// broadcastLocked sends cmd to every rank and collects all replies in rank
// order. Collective commands (update, solve) require this shape: every rank
// must enter the collective, so the sends all happen before any wait.
// Caller holds w.mu (write).
func (w *World) broadcastLocked(kind cmdKind, ops []core.EdgeOp) ([]rankReply, error) {
	cmd := &command{kind: kind, ops: ops, reply: make(chan rankReply, w.p)}
	for _, ch := range w.cmds {
		ch <- cmd
	}
	reps := make([]rankReply, w.p)
	var firstErr error
	for i := 0; i < w.p; i++ {
		rep := <-cmd.reply
		reps[rep.rank] = rep
		if rep.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dserver: rank %d: %w", rep.rank, rep.err)
		}
	}
	if firstErr != nil {
		// A rank that errored has left its command loop; the world cannot
		// run further collectives. Latch the failure and drain.
		w.gmu.Lock()
		w.failed = firstErr
		w.shutdownGLocked()
		w.gmu.Unlock()
	}
	return reps, firstErr
}

// liveGLocked reports the world's liveness. Caller holds gmu (either mode).
func (w *World) liveGLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if w.closed {
		return fmt.Errorf("dserver: world closed")
	}
	return nil
}

// guard checks liveness for a mutating caller that holds w.mu.
func (w *World) guard() error {
	w.gmu.RLock()
	defer w.gmu.RUnlock()
	return w.liveGLocked()
}

// P returns the world size.
func (w *World) P() int { return w.p }

// CommunityOf returns vertex v's current community label (the representative
// vertex of its community), read straight from the owner rank's session
// under that rank's read lock — it does not serialize behind updates
// unless the owner itself is mid-command.
func (w *World) CommunityOf(v int) (int, error) {
	w.gmu.RLock()
	defer w.gmu.RUnlock()
	if err := w.liveGLocked(); err != nil {
		return 0, err
	}
	if v < 0 || v >= w.n {
		return 0, fmt.Errorf("dserver: vertex %d out of range [0,%d)", v, w.n)
	}
	r := v % w.p
	w.rankMu[r].RLock()
	comm, ok := w.sessions[r].CommunityOf(v)
	w.rankMu[r].RUnlock()
	if !ok {
		return 0, fmt.Errorf("dserver: rank %d does not own vertex %d", r, v)
	}
	return comm, nil
}

// Neighborhood returns vertex v's current adjacency, merged across ranks
// (a hub's arcs are sharded; a low vertex lives wholly on its owner) and
// normalized to one arc per neighbor, sorted by target.
func (w *World) Neighborhood(v int) ([]partition.Arc, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	w.gmu.RLock()
	defer w.gmu.RUnlock()
	if err := w.liveGLocked(); err != nil {
		return nil, err
	}
	if v < 0 || v >= w.n {
		return nil, fmt.Errorf("dserver: vertex %d out of range [0,%d)", v, w.n)
	}
	// Holding the world read lock excludes updates, so reading every
	// session in turn sees one consistent cross-rank snapshot.
	sum := make(map[int]int64)
	for r := 0; r < w.p; r++ {
		for _, a := range w.sessions[r].NeighborhoodOf(v) {
			sum[a.To] += a.W
		}
	}
	arcs := make([]partition.Arc, 0, len(sum))
	for to, wt := range sum {
		arcs = append(arcs, partition.Arc{To: to, W: wt})
	}
	sort.Slice(arcs, func(i, j int) bool { return arcs[i].To < arcs[j].To })
	return arcs, nil
}

// Modularity returns the current global modularity (replicated state; rank
// 0's session answers directly under its read lock).
func (w *World) Modularity() (float64, error) {
	w.gmu.RLock()
	defer w.gmu.RUnlock()
	if err := w.liveGLocked(); err != nil {
		return 0, err
	}
	w.rankMu[0].RLock()
	q := w.sessions[0].Modularity()
	w.rankMu[0].RUnlock()
	return q, nil
}

// Membership assembles the full current membership from every rank's
// tracked vertices, normalized to compact community IDs.
func (w *World) Membership() (graph.Membership, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	w.gmu.RLock()
	defer w.gmu.RUnlock()
	if err := w.liveGLocked(); err != nil {
		return nil, err
	}
	m := make(graph.Membership, w.n)
	for i := range m {
		m[i] = -1
	}
	for r := 0; r < w.p; r++ {
		vertices, labels := w.sessions[r].Tracked()
		for i, v := range vertices {
			m[v] = labels[i]
		}
	}
	for v, c := range m {
		if c < 0 {
			return nil, fmt.Errorf("dserver: vertex %d reported by no rank", v)
		}
	}
	m.Normalize()
	return m, nil
}

// Update validates ops against the edge ledger, applies them on every rank
// as one replicated incremental batch, and (with AutoResolve) runs the
// full-solve fallback when drift crosses a threshold.
func (w *World) Update(ops []Op) (UpdateOutcome, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.guard(); err != nil {
		return UpdateOutcome{}, err
	}
	eops, commit, err := w.stageLocked(ops)
	if err != nil {
		return UpdateOutcome{}, err
	}
	reps, err := w.broadcastLocked(cmdUpdate, eops)
	if err != nil {
		return UpdateOutcome{}, err
	}
	commit()
	out := UpdateOutcome{UpdateResult: reps[0].res}
	w.stats.Batches++
	w.stats.Ops += int64(len(eops))
	if out.NeedFull && w.autoResolve {
		if _, err := w.broadcastLocked(cmdSolve, nil); err != nil {
			return UpdateOutcome{}, err
		}
		out.Full = true
		w.stats.Full++
	} else {
		w.stats.Incremental++
	}
	w.refreshStatsLocked()
	return out, nil
}

// Resolve forces the full-solve fallback now, resetting drift.
func (w *World) Resolve() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.guard(); err != nil {
		return err
	}
	if _, err := w.broadcastLocked(cmdSolve, nil); err != nil {
		return err
	}
	w.stats.Full++
	w.refreshStatsLocked()
	return nil
}

// stageLocked validates ops against the ledger and prepares the replicated
// EdgeOp batch: deletes are filled with the edge's full current weight.
// The batch then passes the sessions' own gate (core.Session.ValidateOps),
// so one a rank would refuse is refused before any rank sees it. Nothing is
// committed until the ranks accept the batch; commit applies the staged
// ledger mutations.
func (w *World) stageLocked(ops []Op) ([]core.EdgeOp, func(), error) {
	type entry struct {
		w  int64
		ok bool
	}
	overlay := make(map[uint64]entry)
	get := func(k uint64) (int64, bool) {
		if e, hit := overlay[k]; hit {
			return e.w, e.ok
		}
		wt, ok := w.edges[k]
		return wt, ok
	}
	eops := make([]core.EdgeOp, len(ops))
	for i, op := range ops {
		if op.U < 0 || op.U >= w.n || op.V < 0 || op.V >= w.n {
			return nil, nil, fmt.Errorf("dserver: op %d: vertex out of range [0,%d)", i, w.n)
		}
		if op.U == op.V {
			return nil, nil, fmt.Errorf("dserver: op %d: self-loop %d", i, op.U)
		}
		k := edgeKey(op.U, op.V)
		if op.Del {
			cur, ok := get(k)
			if !ok {
				return nil, nil, fmt.Errorf("dserver: op %d: delete of absent edge (%d,%d)", i, op.U, op.V)
			}
			overlay[k] = entry{}
			eops[i] = core.EdgeOp{U: op.U, V: op.V, W: partition.Dequantise(cur), Del: true}
			continue
		}
		q, _ := partition.Quantise(op.W) // a bad weight fails ValidateOps below
		cur, _ := get(k)
		overlay[k] = entry{w: cur + q, ok: true}
		eops[i] = core.EdgeOp{U: op.U, V: op.V, W: op.W}
	}
	// Every rank holds the same 2m, so rank 0's session answers for all.
	w.rankMu[0].RLock()
	err := w.sessions[0].ValidateOps(eops)
	w.rankMu[0].RUnlock()
	if err != nil {
		return nil, nil, fmt.Errorf("dserver: %w", err)
	}
	commit := func() {
		for k, e := range overlay {
			if e.ok {
				w.edges[k] = e.w
			} else {
				delete(w.edges, k)
			}
		}
	}
	return eops, commit, nil
}

// Stats returns a snapshot of the serving counters.
func (w *World) Stats() Stats {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.stats
}

// refreshStatsLocked re-reads rank 0's replicated scalars. Caller holds
// w.mu (write), so the ranks are quiescent.
func (w *World) refreshStatsLocked() {
	w.gmu.RLock()
	live := w.liveGLocked() == nil
	w.gmu.RUnlock()
	if !live {
		return
	}
	w.rankMu[0].RLock()
	ses := w.sessions[0]
	w.stats.Modularity = ses.Modularity()
	w.stats.DriftQ, w.stats.DriftTouch = ses.Drift()
	w.rankMu[0].RUnlock()
	w.stats.Edges = int64(len(w.edges))
}

// Close shuts the world down and waits for every rank to exit.
func (w *World) Close() error {
	w.mu.Lock()
	w.gmu.Lock()
	already := w.closed
	w.shutdownGLocked()
	w.gmu.Unlock()
	w.mu.Unlock()
	if already {
		return nil
	}
	return <-w.runErr
}

// shutdownGLocked closes the command channels so the rank loops drain.
// Caller holds gmu (write): no direct reader is mid-read, and none can
// start before seeing closed.
func (w *World) shutdownGLocked() {
	if w.closed {
		return
	}
	w.closed = true
	for _, ch := range w.cmds {
		close(ch)
	}
}

// edgeKey packs an undirected edge into a map key (low vertex first).
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}
