package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/wire"
)

// rankOut is one rank's answer to a solve: the labels of the vertices it
// reports, its share of the timings, work, traffic and census, and what
// every rank holds alike (Q, the trace, the simulated times) or only rank
// 0's Result reports (its breakdowns). RunRankLayout sends the per-rank
// part to rank 0 as one Gather frame, and assemble turns the p frames and
// rank 0's own answer into the world's Result.
type rankOut struct {
	tracked []int   // original vertex IDs this rank reports
	labels  []int   // final community labels, parallel to tracked
	levels  [][]int // per-stage label snapshots of tracked vertices

	stage1NS, stage2NS int64
	workUnits          int64 // total deterministic work units across all stages

	// Taken after the solve, before the gather, so the answer's own frame
	// is in no rank's traffic.
	traffic comm.Snapshot
	arcs    int64 // this rank's census row: local arcs and ghosts
	ghosts  int

	// The same on every rank, or rank 0's alone: not in the frame.
	stage1Iters, outer, hubs int
	finalQ                   float64
	qtrace                   []float64
	sim1NS, sim2NS           int64
	comm1NS, comm2NS         int64
	bd, busyBD               trace.Breakdown
}

// errTiling is the cause of an answer that does not tile the vertex range:
// a vertex reported twice, or labels that do not pair with the vertices.
var errTiling = errors.New("answer does not tile the vertex range")

// encode writes the per-rank part of the answer as one frame.
func (o *rankOut) encode() []byte {
	b := wire.NewBuffer(6*len(o.tracked)*(2+len(o.levels)) + 64)
	b.PutInts(o.tracked)
	b.PutInts(o.labels)
	b.PutUvarint(uint64(len(o.levels)))
	for _, l := range o.levels {
		b.PutInts(l)
	}
	for _, v := range []int64{o.stage1NS, o.stage2NS, o.workUnits, o.traffic.MsgsSent,
		o.traffic.MsgsRecv, o.traffic.BytesSent, o.traffic.BytesRecv, o.arcs, int64(o.ghosts)} {
		b.PutVarint(v)
	}
	return b.Bytes()
}

// decodeAnswer reads an answer frame of a world of n vertices. It refuses a
// truncated or overlong frame, a vertex or label outside [0, n), and labels
// that do not pair with the vertices; whether the answers tile [0, n) is
// assemble's check.
func decodeAnswer(frame []byte, n int) (*rankOut, error) {
	rd := wire.NewReader(frame)
	o := &rankOut{tracked: rd.Ints(), labels: rd.Ints()}
	// A level count past what the frame can hold is cut to one more level
	// than it can, so it ends in a truncation error, not a huge allocation.
	o.levels = make([][]int, min(rd.Uvarint(), uint64(rd.Remaining())+1))
	for l := range o.levels {
		o.levels[l] = rd.Ints()
	}
	o.stage1NS, o.stage2NS, o.workUnits = rd.Varint(), rd.Varint(), rd.Varint()
	o.traffic = comm.Snapshot{MsgsSent: rd.Varint(), MsgsRecv: rd.Varint(), BytesSent: rd.Varint(), BytesRecv: rd.Varint()}
	o.arcs, o.ghosts = rd.Varint(), int(rd.Varint())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if rd.Remaining() > 0 {
		return nil, errLongFrame
	}
	for _, ls := range append([][]int{o.tracked, o.labels}, o.levels...) {
		if len(ls) != len(o.tracked) {
			return nil, errTiling
		}
		for _, v := range ls {
			if v < 0 || v >= n {
				return nil, errForeignID
			}
		}
	}
	return o, nil
}

// assemble turns the answer frames gathered at rank 0 (frames[r] is rank
// r's) of a world of n vertices, and rank 0's own answer root, into the
// world's Result. The frames must tile [0, n): every vertex reported by
// exactly one rank, with as many levels as root. A frame that breaks that,
// or that decodeAnswer refuses, fails with an error naming its sender.
func assemble(frames [][]byte, root *rankOut, n int) (*Result, error) {
	p := len(frames)
	res := &Result{
		Membership:    make(graph.Membership, n),
		Modularity:    root.finalQ,
		QTrace:        root.qtrace,
		Stage1Iters:   root.stage1Iters,
		OuterLevels:   root.outer,
		HubCount:      root.hubs,
		Census:        partition.Census{ArcsPerRank: make([]int64, p), GhostsPerRank: make([]int, p), HubCount: root.hubs},
		Stage1Sim:     time.Duration(root.sim1NS),
		Stage2Sim:     time.Duration(root.sim2NS),
		Stage1CommSim: time.Duration(root.comm1NS),
		Stage2CommSim: time.Duration(root.comm2NS),
		Breakdown:     root.bd,
		BusyBreakdown: root.busyBD,
		CommStats:     comm.WorldStats{PerRank: make([]comm.Snapshot, p)},
	}
	for u := range res.Membership {
		res.Membership[u] = -1
	}
	for range root.levels {
		res.LevelMemberships = append(res.LevelMemberships, make(graph.Membership, n))
	}
	reported := 0
	var wmax, wsum int64
	for r, f := range frames {
		o, err := decodeAnswer(f, n)
		if err == nil && len(o.levels) != len(root.levels) {
			err = errTiling
		}
		if err != nil {
			return nil, frameErr(0, "answer", r, err)
		}
		for i, u := range o.tracked {
			if res.Membership[u] >= 0 {
				return nil, frameErr(0, "answer", r, errTiling)
			}
			res.Membership[u] = o.labels[i]
		}
		for l, m := range res.LevelMemberships {
			for i, u := range o.tracked {
				m[u] = o.levels[l][i]
			}
		}
		reported += len(o.tracked)
		res.Stage1Time = max(res.Stage1Time, time.Duration(o.stage1NS))
		res.Stage2Time = max(res.Stage2Time, time.Duration(o.stage2NS))
		wsum += o.workUnits
		wmax = max(wmax, o.workUnits)
		res.CommStats.PerRank[r] = o.traffic
		res.Census.ArcsPerRank[r], res.Census.GhostsPerRank[r] = o.arcs, o.ghosts
	}
	if reported != n {
		return nil, fmt.Errorf("core: rank 0: the answers report %d of %d vertices", reported, n)
	}
	if wsum > 0 {
		res.BalanceRatio = float64(wmax) * float64(p) / float64(wsum)
	}
	res.Membership.Normalize()
	for _, m := range res.LevelMemberships {
		m.Normalize()
	}
	return res, nil
}

// RunRankLayout executes this rank's share of the algorithm over the
// caller's communicator, from this rank's part of a layout built with P =
// c.Size() ranks (the deterministic partitioner gives every process the
// same layout; partition.BuildStreaming does it out of core). Every rank
// then sends its answer to rank 0 in one Gather frame: rank 0 returns the
// world's Result, the same one RunLayout returns, and the other ranks nil.
func RunRankLayout(c comm.Comm, sg *partition.Subgraph, opt Options) (*Result, error) {
	return runRankLayout(c, sg, opt, defaultStop)
}

func runRankLayout(c comm.Comm, sg *partition.Subgraph, opt Options, rule StopRule) (*Result, error) {
	if sg == nil {
		return nil, fmt.Errorf("core: RunRankLayout needs a subgraph")
	}
	if sg.Rank != c.Rank() {
		return nil, fmt.Errorf("core: subgraph is rank %d's part but communicator rank is %d", sg.Rank, c.Rank())
	}
	t0 := trace.Now()
	out, err := runRank(c, sg, opt, rule)
	if err != nil {
		return nil, err
	}
	out.traffic = c.Stats().Snapshot()
	out.arcs, out.ghosts, out.hubs = sg.NumLocalArcs(), len(sg.Ghosts), len(sg.Hubs)
	frames, err := comm.Gather(c, 0, out.encode())
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	res, err := assemble(frames, out, sg.GlobalVertices)
	if err != nil {
		return nil, err
	}
	res.TotalTime = trace.Since(t0)
	return res, nil
}
