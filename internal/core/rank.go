package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
)

// RankResult is one rank's share of a distributed run, for callers that
// drive their own communicator (e.g. the TCP worker processes). Tracked
// lists the original vertex IDs this rank reports and Labels their final
// community labels (global, not normalized — gather all ranks' pieces and
// normalize to obtain the full membership).
type RankResult struct {
	Tracked     []int
	Labels      []int
	Modularity  float64
	Stage1Iters int
	OuterLevels int
	Stage1Time  time.Duration
	Stage2Time  time.Duration
	// WorkUnits is this rank's total deterministic work units; the max/mean
	// across ranks is the run's work-balance ratio.
	WorkUnits int64
}

// RunRank executes this rank's share of the distributed Louvain algorithm
// over the caller's communicator. Every rank must call it with the same
// graph and options; the deterministic partitioner gives each rank its
// subgraph. This is the entry point for truly distributed (multi-process,
// TCP) runs; core.Run wraps it with the in-process transport.
func RunRank(c comm.Comm, g *graph.Graph, opt Options) (*RankResult, error) {
	if opt.P == 0 {
		opt.P = c.Size()
	}
	if opt.P != c.Size() {
		return nil, fmt.Errorf("core: Options.P = %d but communicator has %d ranks", opt.P, c.Size())
	}
	// Deterministic partitioning: every process computes the same layout
	// and keeps its own part (a real deployment would distribute this
	// step; the layout is a pure function of the graph and options).
	layout, err := partition.Build(g, opt.PartitionOptions())
	if err != nil {
		return nil, err
	}
	return RunRankLayout(c, layout.Parts[c.Rank()], opt)
}

// RunRankLayout executes this rank's share of the algorithm from a prebuilt
// subgraph — the out-of-core worker entry point, where every process ran
// partition.BuildStreaming over the sharded file and kept only its own
// part. The subgraph must be rank c.Rank() of a layout built with P =
// c.Size() ranks (the deterministic partitioner makes that true on every
// rank by construction).
func RunRankLayout(c comm.Comm, sg *partition.Subgraph, opt Options) (*RankResult, error) {
	if sg == nil {
		return nil, fmt.Errorf("core: RunRankLayout needs a subgraph")
	}
	if sg.Rank != c.Rank() {
		return nil, fmt.Errorf("core: subgraph is rank %d's part but communicator rank is %d", sg.Rank, c.Rank())
	}
	out, err := runRank(c, sg, opt, defaultStop)
	if err != nil {
		return nil, err
	}
	return &RankResult{
		Tracked:     out.tracked,
		Labels:      out.labels,
		Modularity:  out.finalQ,
		Stage1Iters: out.stage1.Iters,
		OuterLevels: out.outer,
		Stage1Time:  time.Duration(out.stage1NS),
		Stage2Time:  time.Duration(out.stage2NS),
		WorkUnits:   out.workUnits,
	}, nil
}
