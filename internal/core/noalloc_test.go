package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/wire"
)

// TestNoallocAnnotations is the runtime half of the //perf:noalloc regime:
// the noalloc analyzer proves the annotated bodies contain no allocating
// constructs, and this harness bounds the same functions with
// testing.AllocsPerRun ceilings of zero in the converged steady state. The
// driver table is checked against analysis.NoallocFuncs, so annotating a
// new function without adding a driver (or vice versa) fails here.
func TestNoallocAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting under -short")
	}
	annotated, err := analysis.NoallocFuncs(".")
	if err != nil {
		t.Fatalf("reading //perf:noalloc annotations: %v", err)
	}

	g, err := gen.RMAT(gen.Graph500RMAT(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: 1, DHigh: 32}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{P: 1, Kind: opt.Partitioning, DHigh: opt.DHigh})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(1, func(c comm.Comm) error {
		s := newStage(c, layout.Parts[0], opt)
		steadyState(t, c, s)

		// The scan drivers run on a vertex that still has candidates at the
		// fixed point (a tie with staying), so the survivor scratch of
		// scanCandidates is exercised, not just its empty case.
		acc := s.acc
		vi := -1
		for i, v := range s.sg.Owned {
			s.scanCandidates(v, int(s.comm[v]), s.sg.OwnedWDeg[i], s.sg.AdjOwned[i], acc)
			if len(acc.live) > 0 {
				vi = i
				break
			}
		}
		if vi < 0 {
			t.Fatal("fixture has no converged vertex with a surviving candidate")
		}
		u := s.sg.Owned[vi]
		ku := s.sg.OwnedWDeg[vi]
		adj := s.sg.AdjOwned[vi]
		cu := int(s.comm[u])

		// The merge's per-bucket kernels on a one-source bucket, vertex u,
		// under the identity dense numbering; the records fit in len(adj).
		bucket := []int32{int32(vi)}
		s.dense = make([]int32, s.n)
		for c := range s.dense {
			s.dense[c] = int32(c)
		}
		bx := make([]int32, len(adj))
		by := make([]int32, len(adj))
		bw := make([]int64, len(adj))

		// Preallocated operands for the merge counting-sort kernels: 8
		// records over a 4-key space.
		mx := []int32{3, 1, 2, 0, 1, 3, 0, 2}
		my := []int32{0, 1, 2, 3, 0, 1, 2, 3}
		mw := []int64{1, 2, 3, 4, 5, 6, 7, 8}
		mh := make([]int32, 4)
		mox := make([]int32, len(mx))
		moy := make([]int32, len(my))
		mow := make([]int64, len(mw))
		mbounds := make([]int, 5)
		histPrep := func() {
			histCount(mx, mh)
			histOffsets(mh, 0, nil)
		}

		// A push frame as rank 0 sends it to itself: one record for the
		// community of that vertex, which the stage watches.
		pushFrame := wire.NewBuffer(0)
		sc := wire.Scale(s.tot[cu])
		pushFrame.PutScale(sc)
		pushFrame.PutStrideDelta(-1, cu, 1)
		pushFrame.PutScaledVarint(s.tot[cu], sc)
		pushFrame.PutVarint(int64(s.size[cu]))

		// The Σin updates walk a hub's reverse index and a vertex's arcs as if
		// they had moved from cu to another community.
		if len(s.sg.Hubs) == 0 {
			t.Fatal("fixture has no hubs")
		}
		h, other := s.sg.Hubs[0], int(s.comm[adj[0].To])+1

		// The hub-move path on hub 0, which rank 0 owns: a live proposal
		// for it, a proposal frame and a ghost frame's move section carrying
		// one, and a move to the hub's own label (which changes nothing).
		live := make([]hubProposal, len(s.sg.Hubs))
		live[0] = hubProposal{improvement: 1, target: 0}
		propFrame := wire.NewBuffer(0)
		propFrame.PutStrideDelta(-1, 0, 1)
		propFrame.PutF64(1)
		propFrame.PutVarint(0)
		moveFrame := wire.NewBuffer(0)
		moveFrame.PutStrideDelta(-1, 0, 1)
		moveFrame.PutVarint(int64(s.comm[h]))
		var rd wire.Reader

		// One driver per annotated function. hubProposal is exercised on an
		// owned vertex's data: it only reads stage state, so any vertex with
		// adjacency stands in for a hub.
		drivers := map[string]func(){
			"stage.sweep":           func() { s.setActive(true); s.sweep() },
			"stage.arm":             func() { s.arm(u, adj, cu, other) },
			"stage.armRev":          func() { s.armRev(h, cu, other) },
			"stage.flip":            func() { s.flip(u, cu, other, 1) },
			"stage.sendScratch":     func() { s.sendScratch() },
			"stage.encodePush":      func() { s.sendScratch(); s.encodePush() },
			"stage.applyPush":       func() { s.applyPush(0, pushFrame.Bytes()) },
			"stage.encodeFlush":     func() { s.sendScratch(); s.encodeFlush() },
			"stage.encodeProposals": func() { s.sendScratch(); s.encodeProposals(live) },
			"stage.recvProposals":   func() { s.recvProposals(0, propFrame.Bytes()) },
			"stage.decideHubs":      func() { s.recvProposals(0, propFrame.Bytes()); s.decideHubs() },
			"stage.encodeMoves": func() {
				s.sendScratch()
				s.hubLive = append(s.hubLive[:0], 0)
				s.encodeMoves()
			},
			"stage.recvMoves": func() {
				rd.Reset(moveFrame.Bytes())
				s.moves = s.moves[:0]
				s.recvMoves(0, &rd)
			},
			"stage.applyHubMoves": func() {
				s.moves = append(s.moves[:0], 0)
				s.moveTo[0] = s.comm[h]
				s.applyHubMoves()
			},
			"gainAccumulator.reset": func() { acc.reset() },
			"gainAccumulator.add":   func() { acc.reset(); acc.add(cu, 1) },
			"stage.scanCandidates":  func() { s.scanCandidates(u, cu, ku, adj, acc) },
			"stage.bestMove":        func() { s.bestMove(u, ku, adj, acc) },
			"stage.hubProposal":     func() { s.hubProposal(u, ku, adj, acc) },
			"fillInt32":             func() { fillInt32(mh, -1) },
			"histCount":             func() { histCount(mx, mh) },
			"histOffsets":           func() { histPrep(); histOffsets(mh, 1, mbounds) },
			"scatterRecords": func() {
				histPrep()
				scatterRecords(mx, my, mw, mh, mox, moy, mow)
			},
			"stage.countHeads": func() {
				acc.reset()
				s.countHeads(1, bucket)
				clear(acc.w)
			},
			"stage.sumBucket": func() { s.sumBucket(int32(cu), bucket, bx, by, bw, 0) },
			"foldRuns": func() {
				copy(mox, mx)
				copy(moy, my)
				copy(mow, mw)
				mbounds[0], mbounds[1] = 0, len(mx)
				foldRuns(mox, moy, mow, mbounds[:2])
			},
		}

		var table []string
		for name := range drivers {
			table = append(table, name)
		}
		sort.Strings(table)
		if fmt.Sprint(table) != fmt.Sprint(annotated) {
			t.Fatalf("driver table out of sync with //perf:noalloc annotations:\n  annotated: %v\n  drivers:   %v", annotated, table)
		}

		for _, name := range table {
			op := drivers[name]
			op() // settle one-time growth before counting
			if got := testing.AllocsPerRun(10, op); got > 0 {
				t.Errorf("%s: %v allocs/op, //perf:noalloc promises 0", name, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
