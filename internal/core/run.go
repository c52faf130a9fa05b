package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
)

// maxInnerIters caps the local-clustering iterations of one stage.
const maxInnerIters = 100

// innerStallLimit is the number of consecutive iterations without progress
// after which a clustering stage stops (see StopRule).
const innerStallLimit = 3

// minGain is the θ threshold: the smallest global modularity improvement
// that counts as progress, for an outer level over the last and for an
// inner iteration over its stage's best (the floor under StopRule's
// relative threshold).
const minGain = 1e-6

// StopRule decides how long a clustering stage runs (docs/PERFORMANCE.md,
// "Stage length"). An iteration of a stage at level l (0 = stage 1, l = the
// stage after the l-th merge) makes progress when it lifts the stage's best
// Q by more than τ_l·|Q|, where τ_l = Tau0/Scale^l, and never by less than
// minGain. A stage stops after innerStallLimit iterations without
// progress, when nothing moved anywhere, or at maxInnerIters.
//
// The solver has one rule, DefaultStop; RunStop exists so that the converge
// experiment can sweep the alternatives. The resident stage a Session
// serves from always runs at τ = 0, the bare minGain test.
type StopRule struct {
	// Tau0 is the relative threshold of stage 1; 0 leaves only minGain.
	Tau0 float64
	// Scale divides τ at every coarser level; 1 (or less) keeps one τ.
	Scale float64
}

// defaultStop is Lu et al.'s coarse-then-fine threshold (arXiv 1410.1237):
// stage 1 stops once an iteration adds less than 1% of Q, and every
// coarser level asks ten times finer. The converge experiment picked τ0.
var defaultStop = StopRule{Tau0: 1e-2, Scale: 10}

// DefaultStop returns the stop rule every solve runs.
func DefaultStop() StopRule { return defaultStop }

// tau returns the relative threshold of a stage at level.
func (r StopRule) tau(level int) float64 {
	t := r.Tau0
	for ; level > 0 && r.Scale > 1; level-- {
		t /= r.Scale
	}
	return t
}

// stopper is one stage's stop decision. Every rank feeds it the replicated
// Q and move count of the fused IterStats reduction, so all ranks stop at
// the same iteration without a collective of its own.
type stopper struct {
	tau   float64
	best  float64
	stall int
}

func newStopper(tau float64) stopper {
	return stopper{tau: tau, best: math.Inf(-1)}
}

// done records iteration iter's world Q and moves and reports whether the
// stage ends with it.
func (s *stopper) done(iter int, q float64, moved int64) bool {
	if q > s.best+max(s.tau*math.Abs(q), minGain) {
		s.best = q
		s.stall = 0
	} else {
		s.stall++
	}
	return moved == 0 || s.stall >= innerStallLimit || iter >= maxInnerIters
}

// clusterNew runs the clustering loop of a stage fresh from newStage: it
// registers the watches of the initial singleton labels, seeds the
// incremental modularity terms, then clusters.
func (s *stage) clusterNew() (stageResult, error) {
	if err := s.registerWatches(); err != nil {
		return stageResult{}, err
	}
	s.seedQ()
	return s.cluster()
}

// cluster runs the parallel local clustering loop of one stage until no
// vertex moves anywhere in the world (or the iteration cap is reached).
// Every iteration follows the paper's Algorithm 2: receive the aggregates
// that changed, sweep for best moves, agree on delegate moves, swap ghost
// states, flush Σtot deltas, and reduce the global modularity. The stage's
// watches must be registered first: clusterNew does that for a new stage,
// Session.install for the resident one, whose later calls come straight here.
func (s *stage) cluster() (stageResult, error) {
	var res stageResult
	if s.m2 == 0 {
		// Edgeless graph: every vertex stays a singleton and Q is 0 by
		// convention. All ranks share m2, so skipping is consistent.
		res.Iters = 1
		return res, nil
	}
	// The heuristics guarantee the modularity plateaus, but a handful of
	// vertices can keep exchanging equally-good labels forever, and a
	// pruned sweep creeps up long after the stage has done its work: the
	// stopper ends the stage once Q stops making progress at this level.
	stop := newStopper(s.tau)
	for iter := 1; ; iter++ {
		workStart := s.work
		snapStart := s.c.Stats().Snapshot()
		s.tm.Start(trace.Other)
		if err := s.pushAggregates(); err != nil {
			return res, err
		}
		if hook := testPushHook; hook != nil {
			if err := hook(s, iter); err != nil {
				return res, err
			}
		}
		s.tm.Start(trace.FindBest)
		props, movedLocal := s.sweep()
		s.tm.Start(trace.BroadcastDelegates)
		hubMoved, err := s.delegateExchange(props)
		if err != nil {
			return res, err
		}
		s.tm.Start(trace.SwapGhost)
		if err := s.ghostSwap(); err != nil {
			return res, err
		}
		s.tm.Start(trace.Other)
		if err := s.flushDeltas(); err != nil {
			return res, err
		}
		// Per-iteration scalars. Local values are all computed before the
		// reduction so one fused collective can carry them:
		//   - localModularity: this rank's Q contribution, in O(1);
		//   - iterWork: deterministic work units of the iteration (the
		//     simulated parallel time is the per-iteration max across
		//     ranks × WorkUnitNS — wall clock cannot separate ranks
		//     sharing the host's cores, see EXPERIMENTS.md);
		//   - commNS: the α-β traffic cost of the iteration's exchanges
		//     (the fused collective's own frames are not priced — see
		//     EXPERIMENTS.md on the Fig. 8 comm breakdown).
		local := s.localModularity()
		iterWork := s.work - workStart
		snapEnd := s.c.Stats().Snapshot()
		commNS := commCostNS(snapEnd.MsgsSent-snapStart.MsgsSent,
			snapEnd.BytesSent-snapStart.BytesSent)
		reduceMark := snapEnd.BytesSent
		st, err := comm.AllreduceIterStats(s.c, comm.IterStats{
			Moved:  int64(movedLocal + hubMoved),
			Work:   iterWork,
			CommNS: commNS,
			Q:      local,
		})
		if err != nil {
			return res, err
		}
		if debugInvariants {
			if err := s.checkInvariants(iter); err != nil {
				return res, err
			}
		}
		s.charge(exReduce, reduceMark)
		if hook := testIterHook; hook != nil {
			if err := hook(s, iter, st.Q); err != nil {
				return res, err
			}
		}
		s.tm.Stop()
		res.SimNS += st.Work * WorkUnitNS
		res.CommSimNS += st.CommNS
		s.bd.Iters++
		res.Iters = iter
		res.Q = st.Q
		res.Moved += st.Moved
		res.QTrace = append(res.QTrace, st.Q)
		if stop.done(iter, st.Q, st.Moved) {
			return res, nil
		}
	}
}

// Result reports a distributed run.
type Result struct {
	// Membership maps every original vertex to its community
	// (dense labels 0..K-1).
	Membership graph.Membership
	// Modularity is the algorithm's own final global modularity (computed
	// by the distributed reduction, not recomputed from Membership).
	Modularity float64
	// QTrace is the global modularity after every inner clustering
	// iteration across all stages.
	QTrace []float64
	// LevelMemberships is the dendrogram — the membership of the original
	// vertices after each clustering stage (only with Options.TrackLevels).
	LevelMemberships []graph.Membership
	// Stage1Iters is the number of inner iterations of the first
	// (delegate) clustering stage.
	Stage1Iters int
	// OuterLevels counts clustering stages (1 = only the delegate stage).
	OuterLevels int
	// HubCount is the number of delegated vertices.
	HubCount int
	// Census is the partitioning census (per-rank arcs and ghosts).
	Census partition.Census

	// Timings. Stage1Time covers the delegate clustering stage; Stage2Time
	// covers merging plus all later stages. Both are the maximum across
	// ranks; TotalTime is rank 0's wall clock up to this Result's assembly.
	PartitionTime time.Duration
	Stage1Time    time.Duration
	Stage2Time    time.Duration
	TotalTime     time.Duration

	// Stage1CommSim and Stage2CommSim are the simulated communication
	// times under the α-β model of commCostNS (1 µs, 10 GB/s) applied to the
	// measured traffic.
	Stage1CommSim time.Duration
	Stage2CommSim time.Duration

	// Stage1Sim and Stage2Sim are the simulated parallel clustering times:
	// the sum over iterations of the per-iteration maximum (across ranks)
	// of per-rank busy time. On a single-core host the wall-clock times
	// serialize all ranks; these are the scalability measures the
	// experiments report (see EXPERIMENTS.md).
	Stage1Sim time.Duration
	Stage2Sim time.Duration

	// Breakdown is the per-phase wall time of the first stage on rank 0;
	// on a shared host the communication phases include scheduling time.
	Breakdown trace.Breakdown

	// BusyBreakdown is the per-phase simulated compute time of the first
	// stage on rank 0: deterministic work units × WorkUnitNS (Figure 8(b)
	// uses this; see EXPERIMENTS.md).
	BusyBreakdown trace.Breakdown

	// CommStats is the per-rank traffic census of the whole run, up to the
	// answer gather that ends it (each rank snapshots before it answers).
	CommStats comm.WorldStats

	// WireBytes splits CommStats' bytes sent, summed over ranks, by the
	// exchange that sent them; its rows sum to CommStats.TotalBytesSent().
	WireBytes WireBytes

	// BalanceRatio is the whole-run work balance: max over ranks of total
	// deterministic work units divided by the mean (1.0 = perfect balance).
	BalanceRatio float64
}

// exchange names a collective of the solve, a row of WireBytes.
type exchange int

const (
	exPush      exchange = iota // pushAggregates
	exProposals                 // delegateExchange's hub proposals
	exGhostSwap                 // ghostSwap, hub moves included
	exFlush                     // flushDeltas, watch requests included
	exMerge                     // merge's dense-count allgather and arc frames
	exLookups                   // resolveQueries, both legs
	exReduce                    // the fused per-iteration reduction and the other allreduces
	numExchanges
)

var exchangeNames = [numExchanges]string{"push", "proposals", "ghost swap", "flush", "merge", "owner lookups", "reductions"}

// WireBytes is the bytes sent, one row per exchange of the solve.
type WireBytes [numExchanges]int64

// String lists the rows as "name bytes", comma-separated, in solve order.
func (w WireBytes) String() string {
	var b strings.Builder
	for x, n := range w {
		if x > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", exchangeNames[x], n)
	}
	return b.String()
}

// bytesSent reads this rank's sent-byte counter: the mark charge takes.
func (s *stage) bytesSent() int64 { return s.c.Stats().Snapshot().BytesSent }

// charge adds the bytes this rank sent since mark to exchange x's row.
// Every collective of a solve sits between one mark and one charge, so
// the rows add up to the rank's whole traffic.
func (s *stage) charge(x exchange, mark int64) { s.sent[x] += s.bytesSent() - mark }

// DefaultDHigh returns 0, which asks the partitioner for its default hub
// threshold (partition.Options.DHigh): the threshold is decided where the
// degrees are. It stays, with its signature, because callers outside this
// module pass its result on as DHigh.
func DefaultDHigh(p, n int, arcs int64) int { return 0 }

// Run executes the full distributed Louvain algorithm on g with opt.P ranks
// simulated as goroutines over the in-process transport.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	return RunStop(g, opt, defaultStop)
}

// RunStop is Run under another stop rule: the converge experiment's entry
// point (cmd/experiments -only converge).
func RunStop(g *graph.Graph, opt Options, rule StopRule) (*Result, error) {
	if _, err := opt.withDefaults(); err != nil {
		return nil, err
	}
	t0 := trace.Now()
	layout, err := partition.Build(g, opt.PartitionOptions())
	if err != nil {
		return nil, err
	}
	partTime := trace.Since(t0)
	res, err := runLayout(layout, opt, rule)
	if err != nil {
		return nil, err
	}
	res.PartitionTime = partTime
	return res, nil
}

// RunLayout executes the distributed algorithm from a prebuilt partition
// layout — the out-of-core entry point, where the layout came from
// partition.BuildStreaming and no in-RAM Graph exists. The Result is
// identical to Run of the graph the layout was cut from (PartitionTime is
// left zero; the caller timed the build). opt.P may be zero (it then
// follows the layout) but must otherwise match; opt.DHigh is not read, the
// layout already carries its hubs.
func RunLayout(layout *partition.Layout, opt Options) (*Result, error) {
	return runLayout(layout, opt, defaultStop)
}

func runLayout(layout *partition.Layout, opt Options, rule StopRule) (*Result, error) {
	if layout == nil || len(layout.Parts) == 0 {
		return nil, fmt.Errorf("core: RunLayout needs a non-empty layout")
	}
	// The world follows the layout; an opt.P other than its P fails on
	// every rank in NewSession.
	var res *Result
	err := comm.RunWorld(layout.P, func(c comm.Comm) error {
		r, err := runRankLayout(c, layout.Parts[c.Rank()], opt, rule)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runRank is the per-rank algorithm: stage 1 with delegates, then
// merge/recluster rounds without delegates until modularity stops improving
// (Algorithm 1). The body lives in Session.solve (session.go); the batch
// path drives the Session without installing its resident serving state.
func runRank(c comm.Comm, sg *partition.Subgraph, opt Options, rule StopRule) (*rankOut, error) {
	ses, err := NewSession(c, sg, opt)
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	ses.stop = rule
	out, err := ses.solve()
	if err != nil {
		return nil, err
	}
	for i, x := range out.tracked { // the answer reports input vertex IDs
		out.tracked[i] = int(sg.PiInv[x])
	}
	return out, nil
}
