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
// minimum-label rule of Lu et al., the paper's enhanced rule (prefer local
// communities, then multi-vertex ghost communities, then the minimum-label
// singleton ghost) and the default sized rule, which keeps the enhanced
// tie preferences but orders remote moves by community size instead of
// by label.
package core

import (
	"fmt"
	"time"

	"repro/internal/partition"
)

// Heuristic selects the tie-breaking/convergence rule for community moves.
type Heuristic int

const (
	// HeuristicSized is the default: the enhanced rule's tie preferences,
	// with its remote-move constraint ordered by community size instead of
	// by label. A vertex may move into a community owned by another rank
	// only when that community had more members than its own at the start
	// of the iteration (equal counts: the smaller label wins). Every rank
	// reads the same iteration-start counts, so every rank orders every
	// pair of communities the same way and no two remote moves of one
	// iteration can trade A → B and B → A — the property the label rule
	// buys — while the 1 − 1/P of targets that round-robin ownership makes
	// remote are no longer refused merely for carrying a larger label.
	// On-rank moves stay unrestricted.
	HeuristicSized Heuristic = iota
	// HeuristicEnhanced is the paper's rule (Section IV-C). On modularity
	// ties a vertex prefers a community local to this rank (fresh state,
	// Gauss-Seidel application), then a remote community with more than one
	// member, then the minimum-label singleton ghost. Moves into remote
	// communities additionally take the minimum-label constraint
	// C(u) = min(C_new, C_cur) of Algorithm 2 line 11, which breaks the
	// cross-rank bouncing of Figure 3 while leaving on-rank moves as free
	// as the sequential algorithm.
	HeuristicEnhanced
	// HeuristicSimple is the plain minimum-label heuristic of Lu et al. as
	// the paper evaluates it in Figure 5: ties are broken toward the
	// smallest community label, with no further movement constraint. In a
	// distributed setting this permits the bouncing and stale-singleton
	// problems of Figures 3-4 — labels keep moving across ranks until the
	// stop rule ends the stage, at a visibly lower modularity, which is
	// exactly the paper's observation.
	HeuristicSimple
)

func (h Heuristic) String() string {
	switch h {
	case HeuristicSized:
		return "sized"
	case HeuristicEnhanced:
		return "enhanced"
	case HeuristicSimple:
		return "simple"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// ParseHeuristic is the inverse of Heuristic.String for the three rules.
func ParseHeuristic(s string) (Heuristic, error) {
	for _, h := range []Heuristic{HeuristicSized, HeuristicEnhanced, HeuristicSimple} {
		if s == h.String() {
			return h, nil
		}
	}
	return 0, fmt.Errorf("unknown heuristic %q", s)
}

// Options configures a distributed run. The zero value uses delegate
// partitioning with the partitioner's default hub threshold and the
// sized heuristic.
type Options struct {
	// P is the number of ranks (processors). Required, >= 1.
	P int
	// Partitioning selects delegate partitioning (default) or plain 1D
	// (the Cheong-style baseline of Figure 7).
	Partitioning partition.Kind
	// DHigh is the hub degree threshold; <= 0 leaves it to the
	// partitioner's default (partition.Options.DHigh).
	DHigh int
	// Heuristic selects the convergence heuristic.
	Heuristic Heuristic
	// Resolution is the γ of generalized (Reichardt–Bornholdt) modularity;
	// 0 or 1 is standard modularity, larger values produce more, smaller
	// communities. All gains and the reported modularity use it.
	Resolution float64
	// TrackLevels records the membership of the original vertices after
	// every clustering stage (the dendrogram), in Result.LevelMemberships.
	TrackLevels bool
	// CommDeadline bounds every receive of the run: when > 0 and the
	// transport supports deadlines (both built-in transports do), a rank
	// whose Recv waits longer than this fails with an error wrapping
	// comm.ErrTimeout instead of hanging the world on a dead or wedged
	// peer. 0 keeps unbounded blocking. See docs/ROBUSTNESS.md.
	CommDeadline time.Duration
}

// The α-β communication cost model behind the simulated communication
// times (Result.Stage1CommSim/Stage2CommSim): sending a message of b bytes
// costs commLatencyNS + b/commBytesPerNS nanoseconds, a commodity cluster
// fabric of 1 µs latency and 10 GB/s. It prices the traffic the comm layer
// measures exactly, giving a simulated communication time alongside the
// simulated compute time (see EXPERIMENTS.md). The paper's Section VI argues
// communication becomes the bottleneck once local clustering is
// GPU-accelerated; the gpu experiment quantifies that projection with it.
const (
	commLatencyNS  = 1000 // α, the fixed per-message cost in nanoseconds
	commBytesPerNS = 10   // 1/β, the bandwidth in bytes per nanosecond
)

// commCostNS prices a traffic delta of msgs messages totaling bytes bytes.
func commCostNS(msgs, bytes int64) int64 {
	return int64(commLatencyNS*float64(msgs) + float64(bytes)/commBytesPerNS)
}

func (o Options) withDefaults() (Options, error) {
	if o.P < 1 {
		return o, fmt.Errorf("core: P = %d, want >= 1", o.P)
	}
	if o.Heuristic < HeuristicSized || o.Heuristic > HeuristicSimple {
		return o, fmt.Errorf("core: unknown heuristic %v", o.Heuristic)
	}
	if o.Resolution <= 0 {
		o.Resolution = 1
	}
	return o, nil
}

// PartitionOptions maps o onto the partitioner's options. Every entry
// point — Run, RunRankLayout's callers, the resident service, the -oocore
// drivers — partitions through it, so they all cut the same graph the same
// way; an unset DHigh stays unset and the partitioner decides it.
func (o Options) PartitionOptions() partition.Options {
	return partition.Options{P: o.P, Kind: o.Partitioning, DHigh: o.DHigh}
}
