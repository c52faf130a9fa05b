// Package core implements the paper's contribution: a distributed Louvain
// community-detection algorithm over delegate-partitioned graphs.
//
// The driver (Run) follows Algorithm 1 of the paper:
//
//  1. Distributed delegate partitioning (internal/partition).
//  2. Parallel local clustering with delegates: per-iteration greedy local
//     moving, a collective that agrees on every delegate's move (the rank
//     whose local share yields the highest modularity gain wins), ghost
//     community-state swaps, and owner-aggregated Σtot/size bookkeeping.
//  3. Distributed graph merging into a coarser 1D-partitioned graph.
//  4. Parallel local clustering without delegates, repeated until the
//     global modularity stops improving.
//
// The convergence heuristics of Section IV-C are selectable: the simple
// minimum-label rule of Lu et al. and the paper's enhanced rule (prefer
// local communities, then multi-vertex ghost communities, then the
// minimum-label singleton ghost).
package core

import (
	"fmt"
	"time"

	"repro/internal/partition"
)

// Heuristic selects the tie-breaking/convergence rule for community moves.
type Heuristic int

const (
	// HeuristicEnhanced is the paper's rule (Section IV-C). On modularity
	// ties a vertex prefers a community local to this rank (fresh state,
	// Gauss-Seidel application), then a remote community with more than one
	// member, then the minimum-label singleton ghost. Moves into remote
	// communities additionally take the minimum-label constraint
	// C(u) = min(C_new, C_cur) of Algorithm 2 line 11, which breaks the
	// cross-rank bouncing of Figure 3 while leaving on-rank moves as free
	// as the sequential algorithm.
	HeuristicEnhanced Heuristic = iota
	// HeuristicSimple is the plain minimum-label heuristic of Lu et al. as
	// the paper evaluates it in Figure 5: ties are broken toward the
	// smallest community label, with no further movement constraint. In a
	// distributed setting this permits the bouncing and stale-singleton
	// problems of Figures 3-4 — runs typically hit the iteration cap and
	// converge to a visibly lower modularity, which is exactly the paper's
	// observation.
	HeuristicSimple
	// HeuristicStrict applies the minimum-label constraint to every move,
	// local or remote (the most conservative reading of Algorithm 2 line
	// 11). It converges fast — labels are monotone — at a small quality
	// cost; provided for the ablation study.
	HeuristicStrict
)

func (h Heuristic) String() string {
	switch h {
	case HeuristicEnhanced:
		return "enhanced"
	case HeuristicSimple:
		return "simple"
	case HeuristicStrict:
		return "strict"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// ParseHeuristic is the inverse of Heuristic.String for the three rules.
func ParseHeuristic(s string) (Heuristic, error) {
	for _, h := range []Heuristic{HeuristicEnhanced, HeuristicSimple, HeuristicStrict} {
		if s == h.String() {
			return h, nil
		}
	}
	return 0, fmt.Errorf("unknown heuristic %q", s)
}

// Options configures a distributed run. The zero value uses the paper's
// settings: delegate partitioning with DHigh = P and the enhanced heuristic.
type Options struct {
	// P is the number of ranks (processors). Required, >= 1.
	P int
	// Partitioning selects delegate partitioning (default) or plain 1D
	// (the Cheong-style baseline of Figure 7).
	Partitioning partition.Kind
	// DHigh is the hub degree threshold; <= 0 means P (the paper's choice).
	DHigh int
	// Heuristic selects the convergence heuristic.
	Heuristic Heuristic
	// MinGain is the θ threshold: the minimum global modularity improvement
	// for another outer level. Defaults to 1e-6.
	MinGain float64
	// MaxInnerIters caps the local-clustering iterations per stage.
	// Defaults to 100 (a safety net for HeuristicNone).
	MaxInnerIters int
	// MaxOuterLevels caps merge levels; 0 means no cap.
	MaxOuterLevels int
	// TrackTrace records the global modularity after every inner iteration
	// of the first clustering stage (Figure 5).
	TrackTrace bool
	// Resolution is the γ of generalized (Reichardt–Bornholdt) modularity;
	// 0 or 1 is standard modularity, larger values produce more, smaller
	// communities. All gains and the reported modularity use it.
	Resolution float64
	// TrackLevels records the membership of the original vertices after
	// every clustering stage (the dendrogram), in Result.LevelMemberships.
	TrackLevels bool
	// Workers is the intra-rank worker count for the parallel read-only
	// kernels (hub proposals, the modularity arc scan, request
	// encode/answer). 0 selects GOMAXPROCS/P (min 1); 1 forces the serial
	// path. Results are bit-identical at every setting: chunk boundaries
	// depend only on data size and partial results combine in chunk order.
	Workers int
	// Comm is the α-β cost model used for the simulated communication
	// times (Result.Stage1CommSim/Stage2CommSim). The zero value selects
	// DefaultCommModel.
	Comm CommModel
	// CommDeadline bounds every receive of the run: when > 0 and the
	// transport supports deadlines (both built-in transports do), a rank
	// whose Recv waits longer than this fails with an error wrapping
	// comm.ErrTimeout instead of hanging the world on a dead or wedged
	// peer. 0 keeps unbounded blocking. See docs/ROBUSTNESS.md.
	CommDeadline time.Duration
	// UpdateKHops bounds the incremental re-clustering of a Session update:
	// the sweep queue is seeded with the vertices within this many hops of
	// any changed edge's endpoints (the endpoints themselves are hop 0).
	// <= 0 means 2. Larger values re-examine more of the graph per update —
	// closer to full-solve quality, further from full-solve cost.
	UpdateKHops int
	// DriftQ is the cumulative-|ΔQ| drift threshold of the incremental
	// path: once the modularity movement accumulated across incremental
	// update batches (since the last full solve) exceeds it, ApplyUpdates
	// reports NeedFull and the driver should re-solve from scratch.
	// <= 0 means 0.05.
	DriftQ float64
	// DriftTouched is the companion touched-vertex drift threshold: the
	// cumulative fraction of vertices re-examined by incremental sweeps
	// since the last full solve. <= 0 means 0.35.
	DriftTouched float64
}

// CommModel is an α-β communication cost model: sending a message of b
// bytes costs LatencyNS + b/BytesPerNS nanoseconds. It prices the traffic
// the comm layer measures exactly, giving a simulated communication time
// alongside the simulated compute time (see EXPERIMENTS.md). The paper's
// Section VI argues communication becomes the bottleneck once local
// clustering is GPU-accelerated; this model lets the extension experiment
// quantify that projection.
type CommModel struct {
	// LatencyNS is α, the fixed per-message cost in nanoseconds.
	LatencyNS float64
	// BytesPerNS is 1/β, the bandwidth in bytes per nanosecond
	// (1.0 = 1 GB/s ≈ 10 Gb Ethernet payload rate; 10.0 ≈ HPC fabric).
	BytesPerNS float64
}

// DefaultCommModel models a commodity cluster fabric: 1 µs message latency
// and 10 GB/s bandwidth.
func DefaultCommModel() CommModel {
	return CommModel{LatencyNS: 1000, BytesPerNS: 10}
}

// costNS prices a traffic delta of msgs messages totaling bytes bytes.
func (m CommModel) costNS(msgs, bytes int64) int64 {
	return int64(m.LatencyNS*float64(msgs) + float64(bytes)/m.BytesPerNS)
}

func (o Options) withDefaults() (Options, error) {
	if o.P < 1 {
		return o, fmt.Errorf("core: P = %d, want >= 1", o.P)
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-6
	}
	if o.MaxInnerIters <= 0 {
		o.MaxInnerIters = 100
	}
	if o.DHigh <= 0 {
		o.DHigh = o.P
	}
	if o.Resolution <= 0 {
		o.Resolution = 1
	}
	if o.Comm == (CommModel{}) {
		o.Comm = DefaultCommModel()
	}
	if o.UpdateKHops <= 0 {
		o.UpdateKHops = 2
	}
	if o.DriftQ <= 0 {
		o.DriftQ = 0.05
	}
	if o.DriftTouched <= 0 {
		o.DriftTouched = 0.35
	}
	return o, nil
}

// PartitionOptions maps o onto the partitioner's options for a graph of n
// vertices and arcs arcs. It is the one place an unset DHigh becomes
// DefaultDHigh, so every entry point — Run, RunRank, the resident service
// and the out-of-core drivers — cuts the same graph the same way. The
// Layout records the threshold it was built with; RunLayout inherits it.
func (o Options) PartitionOptions(n int, arcs int64) partition.Options {
	dhigh := o.DHigh
	if dhigh <= 0 {
		dhigh = DefaultDHigh(o.P, n, arcs)
	}
	return partition.Options{P: o.P, Kind: o.Partitioning, DHigh: dhigh, Workers: o.Workers}
}
