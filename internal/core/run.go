package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
)

// innerStallLimit is the number of consecutive non-improving iterations
// after which a clustering stage stops (see cluster).
const innerStallLimit = 3

// clusterNew runs the clustering loop of a stage fresh from newStage: it
// registers the watches of the initial singleton labels, then clusters.
func (s *stage) clusterNew() (stageResult, error) {
	if err := s.registerWatches(); err != nil {
		return stageResult{}, err
	}
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
	// Stall detection: the heuristics guarantee the modularity plateaus,
	// but a handful of vertices can keep exchanging equally-good labels
	// forever; stop once Q has not improved for a few iterations.
	bestQ := math.Inf(-1)
	stall := 0
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
		//   - localModularity: this rank's exact Q contribution;
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
		commNS := s.opt.Comm.costNS(snapEnd.MsgsSent-snapStart.MsgsSent,
			snapEnd.BytesSent-snapStart.BytesSent)
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
		if s.opt.TrackTrace {
			res.QTrace = append(res.QTrace, st.Q)
		}
		if st.Q > bestQ+s.opt.MinGain {
			bestQ = st.Q
			stall = 0
		} else {
			stall++
		}
		if st.Moved == 0 || stall >= innerStallLimit || iter >= s.opt.MaxInnerIters {
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
	// iteration across all stages (only filled with Options.TrackTrace).
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
	// ranks; TotalTime is wall clock for the whole world.
	PartitionTime time.Duration
	Stage1Time    time.Duration
	Stage2Time    time.Duration
	TotalTime     time.Duration

	// Stage1CommSim and Stage2CommSim are the simulated communication
	// times under Options.Comm (α-β pricing of the measured traffic).
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

	// CommStats is the per-rank traffic census of the whole run.
	CommStats comm.WorldStats

	// BalanceRatio is the whole-run work balance: max over ranks of total
	// deterministic work units divided by the mean (1.0 = perfect balance).
	BalanceRatio float64
}

// rankOut is what each rank contributes to the final Result.
type rankOut struct {
	tracked  []int // original vertex IDs this rank reports
	labels   []int // final community labels, parallel to tracked
	stage1   stageResult
	qtrace   []float64
	finalQ   float64
	outer    int
	stage1NS int64
	stage2NS int64
	sim1NS   int64
	sim2NS   int64
	comm1NS  int64
	comm2NS  int64
	bd       trace.Breakdown
	busyBD   trace.Breakdown
	levels   [][]int // per-stage label snapshots of tracked vertices

	workUnits int64 // total deterministic work units across all stages
}

// DefaultDHigh is the hub-threshold default shared by every entry point
// (through Options.PartitionOptions). The paper sets dhigh = p in a regime
// where p (thousands) far exceeds the average degree, so hubs are a thin
// tail. Floor the default at four times the average degree so the hub
// fraction stays comparably thin at small p; explicit DHigh values are
// always honored.
func DefaultDHigh(p, n int, arcs int64) int {
	if p < 1 || n <= 0 {
		return 0
	}
	d := p
	if floor := 4 * int(arcs) / n; floor > d {
		d = floor
	}
	return d
}

// Run executes the full distributed Louvain algorithm on g with opt.P ranks
// simulated as goroutines over the in-process transport.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	if _, err := opt.withDefaults(); err != nil {
		return nil, err
	}
	t0 := trace.Now()
	layout, err := partition.Build(g, opt.PartitionOptions(g.NumVertices(), g.NumArcs()))
	if err != nil {
		return nil, err
	}
	partTime := trace.Since(t0)
	res, err := RunLayout(layout, opt)
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
// follows the layout) but must otherwise match; an unset DHigh inherits
// the layout's threshold so session heuristics see the partitioner's
// value.
func RunLayout(layout *partition.Layout, opt Options) (*Result, error) {
	if layout == nil || len(layout.Parts) == 0 {
		return nil, fmt.Errorf("core: RunLayout needs a non-empty layout")
	}
	if opt.P == 0 {
		opt.P = layout.P
	}
	if opt.P != layout.P {
		return nil, fmt.Errorf("core: Options.P = %d but layout has %d ranks", opt.P, layout.P)
	}
	if opt.DHigh <= 0 {
		opt.DHigh = layout.DHigh
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	nGlobal := layout.Parts[0].GlobalVertices

	outs := make([]*rankOut, opt.P)
	tStart := trace.Now()
	stats, err := comm.RunWorldStats(opt.P, func(c comm.Comm) error {
		o, err := runRank(c, layout.Parts[c.Rank()], opt)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		outs[c.Rank()] = o
		return nil
	})
	totalTime := trace.Since(tStart)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Membership:    make(graph.Membership, nGlobal),
		TotalTime:     totalTime,
		CommStats:     stats,
		HubCount:      len(layout.Hubs),
		Census:        layout.Census(),
		Breakdown:     outs[0].bd,
		BusyBreakdown: outs[0].busyBD,
		Stage1Iters:   outs[0].stage1.Iters,
		OuterLevels:   outs[0].outer,
		Modularity:    outs[0].finalQ,
		QTrace:        outs[0].qtrace,
	}
	for _, o := range outs {
		for i, u := range o.tracked {
			res.Membership[u] = o.labels[i]
		}
		if d := time.Duration(o.stage1NS); d > res.Stage1Time {
			res.Stage1Time = d
		}
		if d := time.Duration(o.stage2NS); d > res.Stage2Time {
			res.Stage2Time = d
		}
	}
	var wmax, wsum int64
	for _, o := range outs {
		wsum += o.workUnits
		if o.workUnits > wmax {
			wmax = o.workUnits
		}
	}
	if wsum > 0 {
		res.BalanceRatio = float64(wmax) * float64(len(outs)) / float64(wsum)
	}
	res.Stage1Sim = time.Duration(outs[0].sim1NS)
	res.Stage2Sim = time.Duration(outs[0].sim2NS)
	res.Stage1CommSim = time.Duration(outs[0].comm1NS)
	res.Stage2CommSim = time.Duration(outs[0].comm2NS)
	res.Membership.Normalize()
	if opt.TrackLevels && len(outs[0].levels) > 0 {
		nLevels := len(outs[0].levels)
		for l := 0; l < nLevels; l++ {
			m := make(graph.Membership, nGlobal)
			for _, o := range outs {
				for i, u := range o.tracked {
					m[u] = o.levels[l][i]
				}
			}
			m.Normalize()
			res.LevelMemberships = append(res.LevelMemberships, m)
		}
	}
	return res, nil
}

// runRank is the per-rank algorithm: stage 1 with delegates, then
// merge/recluster rounds without delegates until modularity stops improving
// (Algorithm 1). The body lives in Session.solve (session.go); the batch
// path drives the Session without installing its resident serving state.
func runRank(c comm.Comm, sg *partition.Subgraph, opt Options) (*rankOut, error) {
	ses, err := NewSession(c, sg, opt)
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	return ses.solve()
}
