package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/wire"
)

// foldHubFrames feeds an owner three ranks' proposal frames in the given
// arrival order, then lets it decide. Rank 0 of 3 owns every hub: vertices 0,
// 3, 6 and 9, in communities 8, 3, 6 and 9.
func foldHubFrames(t *testing.T, order []int) (win []hubProposal, moves []int, to []int32) {
	t.Helper()
	type rec struct {
		hub    int
		imp    float64
		target int
	}
	frame := func(recs ...rec) []byte {
		b := wire.NewBuffer(0)
		prev := -1
		for _, r := range recs {
			b.PutStrideDelta(prev, r.hub, 1)
			b.PutF64(r.imp)
			b.PutVarint(int64(r.target))
			prev = r.hub
		}
		return b.Bytes()
	}
	frames := [][]byte{
		frame(rec{0, 1.0, 5}, rec{1, 0.5, 8}, rec{3, 3.0, 2}),
		frame(rec{0, 2.0, 7}, rec{2, 0.3, 9}, rec{3, 3.0, 2}),
		frame(rec{0, 2.0, 4}, rec{1, 0.5, 3}),
	}
	s := &stage{
		p: 3, n: 10, opt: Options{Heuristic: HeuristicEnhanced},
		sg:     &partition.Subgraph{Hubs: []int{0, 3, 6, 9}},
		comm:   []int32{8, -1, -1, 3, -1, -1, 6, -1, -1, 9},
		hubWin: make([]hubProposal, 4),
		moveTo: make([]int32, 4),
	}
	for i := range s.hubWin {
		s.hubWin[i].improvement = negInf
	}
	for _, src := range order {
		if _, err := s.recvProposals(src, frames[src]); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
	win = slices.Clone(s.hubWin)
	if moved := s.decideHubs(); moved != len(s.hubLive) {
		t.Errorf("order %v: decideHubs reports %d moves, lists %v", order, moved, s.hubLive)
	}
	for _, i := range s.hubLive {
		to = append(to, s.moveTo[i])
	}
	for i, w := range s.hubWin {
		if w.improvement != negInf {
			t.Errorf("order %v: hub %d's fold not reset: %v", order, i, w)
		}
	}
	return win, slices.Clone(s.hubLive), to
}

// TestCombineHubProposalsPicksMaxAndTieBreaks checks the owner-side fold: the
// higher improvement wins, ties go to the smaller target, and decideHubs moves
// no hub to its own label, nor to a larger one under the enhanced heuristic.
func TestCombineHubProposalsPicksMaxAndTieBreaks(t *testing.T) {
	win, moves, to := foldHubFrames(t, []int{0, 1, 2})
	// hub 0: 2.0 beats 1.0, and of the two 2.0s target 4 beats 7.
	// hub 1: tie on 0.5, target 3 wins; 3 is hub 1's own label, so no move.
	// hub 2: one proposal, but 9 > 6 under the enhanced heuristic, so no move.
	// hub 3: the same record twice; 2 < 9, so it moves.
	if want := []hubProposal{{2.0, 4}, {0.5, 3}, {0.3, 9}, {3.0, 2}}; !slices.Equal(win, want) {
		t.Errorf("winners %v, want %v", win, want)
	}
	if want := []int{0, 3}; !slices.Equal(moves, want) {
		t.Errorf("moves %v, want %v", moves, want)
	}
	if want := []int32{4, 2}; !slices.Equal(to, want) {
		t.Errorf("targets %v, want %v", to, want)
	}
}

// TestCombineHubProposalsCommutative requires the same winners and moves in
// all six arrival orders of three sources' frames, ties included.
func TestCombineHubProposalsCommutative(t *testing.T) {
	win0, moves0, to0 := foldHubFrames(t, []int{0, 1, 2})
	for _, order := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		win, moves, to := foldHubFrames(t, order)
		if !slices.Equal(win, win0) || !slices.Equal(moves, moves0) || !slices.Equal(to, to0) {
			t.Errorf("order %v: winners %v moves %v -> %v, order [0 1 2] gave %v %v -> %v",
				order, win, moves, to, win0, moves0, to0)
		}
	}
}

// queryStages returns a per-rank stage constructor over a small graph, for
// driving resolveQueries (which only needs the stage's communicator and
// exchange scratch).
func queryStages(t *testing.T, p int) func(c comm.Comm) *stage {
	t.Helper()
	g, _, err := gen.Caveman(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Options{P: p}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return func(c comm.Comm) *stage { return newStage(c, layout.Parts[c.Rank()], opt) }
}

func TestResolveQueries(t *testing.T) {
	stageOf := queryStages(t, 4)
	err := comm.RunWorld(4, func(c comm.Comm) error {
		s := stageOf(c)
		// lookup(x) = x*10, evaluated at owner x%4 and nowhere else.
		queries := []int{c.Rank(), 7, 0, 13, c.Rank() + 4}
		res, err := s.resolveQueries(nil, queries, 10*s.n, func(x int) int {
			if x%4 != c.Rank() {
				t.Errorf("rank %d asked to look up %d, which rank %d owns", c.Rank(), x, x%4)
			}
			return x * 10
		})
		if err != nil {
			return err
		}
		for i, x := range queries {
			if res[i] != x*10 {
				t.Errorf("rank %d: res[%d] = %d, want %d", c.Rank(), i, res[i], x*10)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResolveQueriesEmpty(t *testing.T) {
	stageOf := queryStages(t, 3)
	err := comm.RunWorld(3, func(c comm.Comm) error {
		s := stageOf(c)
		res, err := s.resolveQueries(nil, nil, 1, func(x int) int { return x })
		if err != nil {
			return err
		}
		if len(res) != 0 {
			t.Errorf("res = %v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResolveQueriesAsksOnce feeds every rank unsorted queries with
// repeats, some of them its own ids, at P = 1 to 4. Every position must get
// lookup(x), and every request frame must name each distinct id asked of
// its owner exactly once, ascending: the remote frames are decoded from
// what the rank sent, and the own frame — answered first, before any peer
// frame lands — from the order of the owner's first lookups.
func TestResolveQueriesAsksOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			stageOf := queryStages(t, p)
			err := comm.RunWorld(p, func(c comm.Comm) error {
				lc := &sendLogComm{Comm: c}
				s := stageOf(lc)
				rng := rand.New(rand.NewSource(int64(10*p + c.Rank())))
				queries := []int{c.Rank(), s.n - 1}
				for range 40 {
					queries = append(queries, rng.Intn(s.n))
				}
				queries = append(queries, c.Rank(), queries[5])
				want := make([][]int, p) // distinct ids per owner, ascending
				for _, x := range queries {
					o := partition.Owner(x, p)
					if !slices.Contains(want[o], x) {
						want[o] = append(want[o], x)
					}
				}
				for _, ids := range want {
					slices.Sort(ids)
				}
				var looked []int
				res, err := s.resolveQueries(nil, queries, 7*s.n+3, func(x int) int {
					looked = append(looked, x)
					return 7*x + 3
				})
				if err != nil {
					return err
				}
				for i, x := range queries {
					if res[i] != 7*x+3 {
						t.Errorf("p=%d rank %d: res[%d] = %d, want lookup(%d) = %d", p, c.Rank(), i, res[i], x, 7*x+3)
					}
				}
				if own := want[c.Rank()]; len(looked) < len(own) || !slices.Equal(looked[:len(own)], own) {
					t.Errorf("p=%d rank %d: first lookups %v, want the own ids %v", p, c.Rank(), looked, own)
				}
				if len(lc.sent) != 2*(p-1) {
					return fmt.Errorf("rank %d sent %d frames, want %d", c.Rank(), len(lc.sent), 2*(p-1))
				}
				for i, frame := range lc.sent[:p-1] { // the request leg
					d := lc.dst[i]
					rd := wire.NewReader(frame)
					k := int(rd.Uvarint())
					got := make([]int, 0, k)
					for x := d - p; len(got) < k && rd.Err() == nil; {
						x = rd.StrideDelta(x, p, s.n)
						got = append(got, x)
					}
					if rd.Err() != nil || rd.Remaining() != 0 || !slices.Equal(got, want[d]) {
						t.Errorf("p=%d rank %d: request to rank %d names %v (err %v, %d bytes left), want %v",
							p, c.Rank(), d, got, rd.Err(), rd.Remaining(), want[d])
					}
				}
				// A second call on the same stage, with another lookup, sees
				// none of the first call's answers.
				slices.Reverse(queries)
				res, err = s.resolveQueries(nil, queries, 7*s.n+3, func(x int) int { return 7*x + 1 })
				if err != nil {
					return err
				}
				for i, x := range queries {
					if res[i] != 7*x+1 {
						t.Errorf("p=%d rank %d: second call: res[%d] = %d, want %d", p, c.Rank(), i, res[i], 7*x+1)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	opt, err := Options{P: 4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Resolution != 1 || opt.DHigh != 0 {
		t.Errorf("defaults: %+v", opt)
	}
	if _, err := (Options{}).withDefaults(); err == nil {
		t.Error("expected error for P = 0")
	}
}

// TestRunRankMatchesRun drives RunRankLayout by hand on every rank of an
// in-process world: rank 0's Result is Run's, field by field, and the other
// ranks get nil.
func TestRunRankMatchesRun(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 0.25, 77))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{P: 3, TrackLevels: true}
	want, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "RunRankLayout", worldResult(t, comm.RunWorld, g, opt), want)
}

// TestRunRankPMismatch pins RunRankLayout's refusals, all before the rank
// sends anything: a world size other than Options.P, another rank's part,
// and no part.
func TestRunRankPMismatch(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(2, func(c comm.Comm) error {
		for _, tc := range []struct {
			name string
			sg   *partition.Subgraph
			opt  Options
		}{
			{"P mismatch", layout.Parts[c.Rank()], Options{P: 5}},
			{"another rank's part", layout.Parts[1-c.Rank()], Options{}},
			{"no part", nil, Options{}},
		} {
			if _, err := RunRankLayout(c, tc.sg, tc.opt); err == nil {
				t.Errorf("rank %d, %s: expected an error", c.Rank(), tc.name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAssembleHostileAnswers feeds rank 0 answer frames that do not tile
// [0, n). Each must fail with a frameErr naming the sender, never panic or
// assemble a membership; every prefix of a valid frame is a truncation.
func TestAssembleHostileAnswers(t *testing.T) {
	const n = 4
	answer := func(tracked, labels []int, levels ...[]int) *rankOut {
		return &rankOut{tracked: tracked, labels: labels, levels: levels, workUnits: 7,
			traffic: comm.Snapshot{MsgsSent: 3, BytesSent: 40}, arcs: 5, ghosts: 1}
	}
	root := answer([]int{0, 2}, []int{0, 0}, []int{0, 0})
	root.finalQ, root.stage1Iters, root.busyBD.Durations[1] = 0.2, 2, 30
	r0 := root.encode()
	good := answer([]int{1, 3}, []int{1, 3}, []int{1, 1}).encode()
	res, err := assemble([][]byte{r0, good}, root, n)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Membership, graph.Membership{0, 1, 0, 2}) || res.Modularity != 0.2 ||
		!slices.Equal(res.LevelMemberships[0], graph.Membership{0, 1, 0, 1}) ||
		res.CommStats.TotalBytesSent() != 80 || res.Census.TotalArcs() != 10 || res.BalanceRatio != 1 ||
		res.Stage1Iters != 2 || res.BusyBreakdown.Durations[1] != 30 {
		t.Fatalf("assembled %+v", res)
	}
	cases := []struct {
		name  string
		frame []byte
		cause error // nil: any decode error
	}{
		{"trailing-byte", append(slices.Clone(good), 0), errLongFrame},
		{"repeated-vertex", answer([]int{1, 2}, []int{1, 1}, []int{1, 1}).encode(), errTiling},
		{"vertex-past-n", answer([]int{1, n}, []int{1, 1}, []int{1, 1}).encode(), errForeignID},
		{"negative-vertex", answer([]int{-1, 3}, []int{1, 1}, []int{1, 1}).encode(), errForeignID},
		{"label-past-n", answer([]int{1, 3}, []int{1, n}, []int{1, 1}).encode(), errForeignID},
		{"level-label-past-n", answer([]int{1, 3}, []int{1, 1}, []int{n, 1}).encode(), errForeignID},
		{"unpaired-labels", answer([]int{1, 3}, []int{1}, []int{1, 1}).encode(), errTiling},
		{"missing-level", answer([]int{1, 3}, []int{1, 1}).encode(), errTiling},
		{"empty", nil, nil},
		{"huge-length", binary.AppendUvarint(nil, 1<<63), nil}, // must not wrap negative in Ints
	}
	for i := 1; i < len(good); i++ {
		cases = append(cases, struct {
			name  string
			frame []byte
			cause error
		}{fmt.Sprintf("truncated-%d", i), good[:i], nil})
	}
	for _, tc := range cases {
		res, err := assemble([][]byte{r0, tc.frame}, root, n)
		if err == nil || res != nil {
			t.Errorf("%s: assembled %v, err %v", tc.name, res, err)
			continue
		}
		if !strings.Contains(err.Error(), "malformed answer frame from rank 1") ||
			(tc.cause != nil && !errors.Is(err, tc.cause)) {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	if _, err := assemble([][]byte{r0, answer([]int{1}, []int{1}, []int{1}).encode()}, root, n); err == nil {
		t.Error("vertex 3 reported by no rank: assembled")
	}
}

func TestGainAccumulator(t *testing.T) {
	acc := newGainAccumulator(10)
	acc.add(3, 3)
	acc.add(7, 4)
	acc.add(3, 1)
	if acc.w[3] != 4 || acc.w[7] != 4 {
		t.Errorf("weights: %v", acc.w)
	}
	acc.add(1, 2)
	if keys := acc.keys; len(keys) != 3 || keys[0] != 3 || keys[1] != 7 || keys[2] != 1 {
		t.Errorf("keys (first-touch order): %v", keys)
	}
	acc.reset()
	if acc.w[3] != 0 || len(acc.keys) != 0 {
		t.Error("reset incomplete")
	}
}

// scanCandidatesFullSort is the scan as it ran before scanCandidates
// filtered: every neighbouring community in ascending label order, every one
// compared, the gain expression written out. It is the oracle the filtered
// scan must equal bit for bit.
func (s *stage) scanCandidatesFullSort(u, cu int, k int64, adj []partition.Arc, acc *gainAccumulator) (stayGain, best float64, cands []int) {
	acc.reset()
	for _, a := range adj {
		if a.To == u {
			continue
		}
		acc.add(int(s.comm[a.To]), a.W)
	}
	w := partition.Dequantise
	totCu := w(s.lookupTot(cu) - k)
	stayGain = w(acc.w[cu]) - s.gamma*totCu*w(k)/w(s.m2)

	best = stayGain
	sort.Ints(acc.keys)
	for _, c := range acc.keys {
		if c == cu {
			continue
		}
		gain := w(acc.w[c]) - s.gamma*w(s.lookupTot(c))*w(k)/w(s.m2)
		switch {
		case gain > best+gainEps:
			best = gain
			cands = append(cands[:0], c)
		case gain > best-gainEps:
			cands = append(cands, c)
		}
	}
	return stayGain, best, cands
}

// checkScan runs scanCandidates and the full-sort oracle on one vertex and
// compares (stayGain, best, cands) to the bit and the arbitration of the
// candidates under all three heuristics. acc and ref are scratch owned by the
// caller.
func checkScan(s *stage, u, cu int, k int64, adj []partition.Arc, acc, ref *gainAccumulator) error {
	stay, best, cands := s.scanCandidates(u, cu, k, adj, acc)
	wantStay, wantBest, wantCands := s.scanCandidatesFullSort(u, cu, k, adj, ref)
	if math.Float64bits(stay) != math.Float64bits(wantStay) || math.Float64bits(best) != math.Float64bits(wantBest) || !slices.Equal(cands, wantCands) {
		return fmt.Errorf("vertex %d in %d: filtered scan (stay %v, best %v, cands %v), full sort (stay %v, best %v, cands %v)",
			u, cu, stay, best, cands, wantStay, wantBest, wantCands)
	}
	if len(cands) == 0 {
		return nil
	}
	defer func(h Heuristic) { s.opt.Heuristic = h }(s.opt.Heuristic)
	for _, h := range []Heuristic{HeuristicEnhanced, HeuristicSimple} {
		s.opt.Heuristic = h
		if got, want := s.pickCandidate(cu, cands), s.pickCandidate(cu, wantCands); got != want {
			return fmt.Errorf("vertex %d in %d, heuristic %v: picked %d, full sort picks %d", u, cu, h, got, want)
		}
	}
	return nil
}

// TestScanCandidatesMatchesFullSort is the equivalence property of the
// filter-then-sort scan: on seeded random accumulators — among them the
// adversarial shapes where a filter could go wrong: gains gainEps/2 apart in
// ladders around stayGain and around the maximum, exact ties, cu absent from
// the keys, a single key, every key below the floor — it returns what the
// full sort returns.
func TestScanCandidatesMatchesFullSort(t *testing.T) {
	const (
		n     = 64 // vertex 0 is evaluated; labels and neighbours are 1..n-1
		cases = 12000
		unit  = 1 << 20 // one weight in fixed-point units
	)
	shapes := []string{"random", "ladder-stay", "ladder-max", "ties", "no-cu", "single", "below-floor"}
	rng := rand.New(rand.NewSource(23))
	// With k one weight and 2m = 2^21 weights, a gain is w − Σtot·2^-41:
	// each fixed-point unit of Σtot lowers it by ≈ gainEps/2.2, so the
	// ladders below place gains a few gainEps apart through Σtot.
	s := &stage{
		comm: make([]int32, n), tot: make([]int64, n), size: make([]int32, n), cached: make([]bool, n),
		gamma: 1, m2: 1 << 41,
	}
	for c := range s.cached {
		s.cached[c] = true
	}
	acc, ref := newGainAccumulator(n), newGainAccumulator(n)
	multi, filtered := 0, 0
	for i := 0; i < cases; i++ {
		shape := shapes[i%len(shapes)]
		s.p = 1 + rng.Intn(4)
		s.rnk = rng.Intn(s.p)
		labels := rng.Perm(n - 1)[:1+rng.Intn(24)]
		for j := range labels {
			labels[j]++
		}
		if shape == "single" {
			labels = labels[:1]
		}
		cu := labels[rng.Intn(len(labels))]
		k := int64(unit)
		for c := range s.tot {
			s.tot[c] = 0
			s.size[c] = int32(rng.Intn(3))
		}
		// One neighbour per label, in random order (the accumulator's keys are
		// in first-touch order), plus a self-loop the scan must skip.
		var adj []partition.Arc
		for _, c := range labels {
			var w int64
			switch shape {
			case "random":
				w, s.tot[c] = rng.Int63n(2*unit), rng.Int63n(s.m2)
			case "ladder-stay", "single", "no-cu":
				w, s.tot[c] = unit, rng.Int63n(13)
			case "ladder-max":
				w, s.tot[c] = 2*unit, rng.Int63n(13)
				if rng.Intn(3) == 0 {
					w, s.tot[c] = unit+rng.Int63n(unit/2), 0
				}
			case "ties":
				w = int64(1+rng.Intn(3)) * unit
			case "below-floor":
				w = unit - 1 - rng.Int63n(unit-1)
			}
			switch {
			case c != cu:
			case shape == "no-cu":
				continue
			case shape == "ladder-max":
				w = unit / 2
			case shape != "random":
				w = unit
			}
			s.comm[c] = int32(c)
			adj = append(adj, partition.Arc{To: c, W: w})
		}
		if shape != "random" {
			s.tot[cu] += k // the stay gain is then w less the ladder offset
		}
		adj = append(adj, partition.Arc{To: 0, W: 3 * unit})
		rng.Shuffle(len(adj), func(a, b int) { adj[a], adj[b] = adj[b], adj[a] })
		s.comm[0] = int32(cu)

		if err := checkScan(s, 0, cu, k, adj, acc, ref); err != nil {
			t.Fatalf("case %d (%s): %v", i, shape, err)
		}
		_, _, cands := s.scanCandidates(0, cu, k, adj, acc)
		if len(cands) > 1 {
			multi++
		}
		if len(acc.live) > 0 && len(acc.live) < len(acc.keys)-1 {
			filtered++
		}
		if shape == "below-floor" {
			if len(cands) != 0 {
				t.Fatalf("case %d: candidates %v with every gain below the floor", i, cands)
			}
			if pr := s.hubProposal(0, k, adj, acc); pr.improvement != negInf || pr.target != cu {
				t.Fatalf("case %d: hub proposal %+v with no candidate", i, pr)
			}
			if _, ok := s.bestMove(0, k, adj, acc); ok {
				t.Fatalf("case %d: bestMove moves with no candidate", i)
			}
		}
	}
	if multi < cases/10 || filtered < cases/10 {
		t.Fatalf("generator is degenerate: %d of %d cases tie, %d filter part of their keys", multi, cases, filtered)
	}
}

func TestAllowMoveSemantics(t *testing.T) {
	mk := func(h Heuristic) *stage {
		return &stage{opt: Options{Heuristic: h}, p: 4, rnk: 1}
	}
	// Enhanced: local targets (owner == rank 1) always allowed.
	s := mk(HeuristicEnhanced)
	if !s.allowMove(3, 5) { // 5 % 4 == 1 == rnk, local
		t.Error("enhanced should allow local move")
	}
	if s.allowMove(3, 6) { // remote (6%4=2), 6 > 3 → blocked
		t.Error("enhanced should block upward remote move")
	}
	if !s.allowMove(7, 6) { // remote but downward
		t.Error("enhanced should allow downward remote move")
	}
	// Simple: anything goes.
	s = mk(HeuristicSimple)
	if !s.allowMove(3, 9) || !s.allowMove(9, 3) {
		t.Error("simple should allow all moves")
	}
}

func TestPickEnhancedPreferences(t *testing.T) {
	s := &stage{opt: Options{Heuristic: HeuristicEnhanced}, p: 4, rnk: 1,
		size: make([]int32, 20), cached: make([]bool, 20)}
	// candidates sorted ascending; 5 and 9 are local (≡1 mod 4), 6 remote.
	if got := s.pickEnhanced([]int{6, 9}); got != 9 {
		t.Errorf("local preference: got %d, want 9", got)
	}
	// no local: remote multi-member (size>1) preferred over smaller singleton
	s.cached[6] = true
	s.size[6] = 3
	s.cached[2] = true
	s.size[2] = 1
	if got := s.pickEnhanced([]int{2, 6}); got != 6 {
		t.Errorf("multi-member preference: got %d, want 6", got)
	}
	// only singletons: min label
	if got := s.pickEnhanced([]int{2, 10}); got != 2 {
		t.Errorf("singleton min label: got %d, want 2", got)
	}
}

func TestStageInvariantChecker(t *testing.T) {
	// The debug invariant checker must pass on a healthy run.
	withInvariants(t)
	g, _, err := gen.LFR(gen.DefaultLFR(300, 0.25, 15))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Modularity) {
		t.Fatal("NaN modularity")
	}
}

// TestCommModelCost pins the α-β fabric the simulated comm times use:
// 1 µs per message and 10 GB/s.
func TestCommModelCost(t *testing.T) {
	// 3 messages, 5000 bytes: 3*1000 + 5000/10 = 3500 ns.
	if got := commCostNS(3, 5000); got != 3500 {
		t.Errorf("commCostNS = %d, want 3500", got)
	}
	if got := commCostNS(0, 0); got != 0 {
		t.Errorf("commCostNS(0,0) = %d", got)
	}
}

func TestCommSimPopulated(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 81))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage1CommSim <= 0 {
		t.Error("Stage1CommSim not recorded")
	}
	// Every stage-1 iteration prices at least its three exchanges, p−1 = 3
	// messages each per rank, at the 1 µs latency.
	if floor := time.Duration(res.Stage1Iters*3*3) * commLatencyNS; res.Stage1CommSim < floor {
		t.Errorf("Stage1CommSim %v below the latency floor %v of %d iterations", res.Stage1CommSim, floor, res.Stage1Iters)
	}
}

func TestMergeConservesWeightAndModularity(t *testing.T) {
	// Drive one stage + merge directly over an in-process world and verify
	// the merged distributed graph conserves 2m and represents the same
	// partition quality.
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 91))
	if err != nil {
		t.Fatal(err)
	}
	p := 4
	layout, err := partition.Build(g, partition.Options{P: p, Kind: partition.Delegate, DHigh: 40})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]float64, p)
	weights := make([]int64, p)
	counts := make([]int, p)
	opt, err := Options{P: p}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		res, err := st.clusterNew()
		if err != nil {
			return err
		}
		newSG, k, err := st.merge()
		if err != nil {
			return err
		}
		qs[c.Rank()] = res.Q
		counts[c.Rank()] = k
		var local int64
		for _, wd := range newSG.OwnedWDeg {
			local += wd
		}
		weights[c.Rank()] = local
		// Every owned coarse vertex must be consistent with k.
		for _, v := range newSG.Owned {
			if v < 0 || v >= k {
				t.Errorf("rank %d owns out-of-range coarse vertex %d (k=%d)", c.Rank(), v, k)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalW int64
	for _, w := range weights {
		totalW += w
	}
	if totalW != layout.Parts[0].TotalWeight2 {
		t.Errorf("merged 2m = %d, want %d", totalW, layout.Parts[0].TotalWeight2)
	}
	for r := 1; r < p; r++ {
		if counts[r] != counts[0] || qs[r] != qs[0] {
			t.Errorf("rank %d disagrees: k=%d q=%g vs k=%d q=%g", r, counts[r], qs[r], counts[0], qs[0])
		}
	}
	if counts[0] <= 1 || counts[0] >= g.NumVertices() {
		t.Errorf("merge produced %d communities from %d vertices", counts[0], g.NumVertices())
	}
}

// dumpCoarse renders every field of a coarse subgraph, so string equality
// is equality of the merge result (including the dense translation table
// the next level runs on).
func dumpCoarse(sg *partition.Subgraph, k int, dense []int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d rank=%d p=%d gv=%d\ndense=%v\n", k, sg.Rank, sg.P, sg.GlobalVertices, dense)
	for i, v := range sg.Owned {
		fmt.Fprintf(&b, "v%d wdeg=%d", v, sg.OwnedWDeg[i])
		for _, a := range sg.AdjOwned[i] {
			fmt.Fprintf(&b, " %d:%d", a.To, a.W)
		}
		fmt.Fprintf(&b, " subs=%v\n", sg.Subscribers[v])
	}
	fmt.Fprintf(&b, "ghosts=%v\n", sg.Ghosts)
	return b.String()
}

// TestMergeMatchesSeedCrossMatrix runs the zero-map merge back-to-back with
// the retained seed implementation (merge_seed_test.go) on the same
// converged stage and demands identical coarse subgraphs across both
// partitionings x P {1,2,4}.
func TestMergeMatchesSeedCrossMatrix(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 91))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
		for _, p := range []int{1, 2, 4} {
			name := fmt.Sprintf("kind=%d/p=%d", kind, p)
			layout, err := partition.Build(g, partition.Options{P: p, Kind: kind, DHigh: 40})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := (Options{P: p, DHigh: 40, Partitioning: kind}).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			err = comm.RunWorld(p, func(c comm.Comm) error {
				st := newStage(c, layout.Parts[c.Rank()], opt)
				if _, err := st.clusterNew(); err != nil {
					return err
				}
				seedSG, seedK, err := st.mergeSeed()
				if err != nil {
					return err
				}
				seedDump := dumpCoarse(seedSG, seedK, st.dense)
				newSG, k, err := st.merge()
				if err != nil {
					return err
				}
				if got := dumpCoarse(newSG, k, st.dense); got != seedDump {
					t.Errorf("%s rank %d: merge() differs from seed:\nnew:\n%sseed:\n%s", name, c.Rank(), got, seedDump)
				}
				if !reflect.DeepEqual(newSG, seedSG) {
					t.Errorf("%s rank %d: DeepEqual mismatch between merge() and seed subgraphs", name, c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestMergePreaggWireVolume is the wire-volume property test: over the
// same converged stage, the pair-summed frames of the new merge must send at
// most half the bytes of the seed's one-record-per-arc frames on a clustered
// graph at P=4 (frames that carry every duplicate weight send 68% here)
// while decoding to bit-identical totals. Each rank reads its own
// endpoint's byte counter around each merge.
func TestMergePreaggWireVolume(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 93))
	if err != nil {
		t.Fatal(err)
	}
	p := 4
	layout, err := partition.Build(g, partition.Options{P: p, Kind: partition.Delegate, DHigh: 40})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: p, DHigh: 40}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	seedSent, newSent := make([]int64, p), make([]int64, p)
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		if _, err := st.clusterNew(); err != nil {
			return err
		}
		sent := func() int64 { return c.Stats().Snapshot().BytesSent }
		t0 := sent()
		seedSG, _, err := st.mergeSeed()
		if err != nil {
			return err
		}
		t1 := sent()
		newSG, _, err := st.merge()
		if err != nil {
			return err
		}
		seedSent[c.Rank()], newSent[c.Rank()] = t1-t0, sent()-t1
		if !reflect.DeepEqual(seedSG.OwnedWDeg, newSG.OwnedWDeg) {
			t.Errorf("rank %d: decoded weighted degrees differ between seed and pre-aggregated merge", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var seedBytes, newBytes int64
	for r := 0; r < p; r++ {
		seedBytes += seedSent[r]
		newBytes += newSent[r]
	}
	if newBytes <= 0 || seedBytes <= 0 {
		t.Fatalf("traffic counters recorded nothing: seed=%d new=%d", seedBytes, newBytes)
	}
	if 2*newBytes > seedBytes {
		t.Errorf("pre-aggregated merge sent %d bytes, seed sent %d: want at most half", newBytes, seedBytes)
	}
	t.Logf("merge wire volume: seed=%dB preagg=%dB (%.1f%% of seed)", seedBytes, newBytes, 100*float64(newBytes)/float64(seedBytes))
}

// TestMergeScratchFollowsPairs bounds the scratch a cold first merge leaves
// on a duplicate-heavy fixture (R-MAT scale 12, P = 4, with hubs): the
// sender sums each coarse vertex's arcs before it emits a record, so every
// record column is sized by the distinct (cu, cv) pairs the rank sends or
// receives, not by its arc count. The fixture must fold at least 2 arcs
// into each pair for the bound to mean anything.
func TestMergeScratchFollowsPairs(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(12, 7))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	opt, err := (Options{P: p, DHigh: 64}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{P: p, Kind: opt.Partitioning, DHigh: opt.DHigh})
	if err != nil {
		t.Fatal(err)
	}
	if len(layout.Hubs) == 0 {
		t.Fatal("fixture has no hubs")
	}
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		if _, err := st.clusterNew(); err != nil {
			return err
		}
		if _, _, err := st.merge(); err != nil {
			return err
		}
		arcs := 0
		for _, adj := range st.sg.AdjOwned {
			arcs += len(adj)
		}
		for _, adj := range st.sg.AdjHub {
			arcs += len(adj)
		}
		ms := st.ms
		sent, recvd := ms.dstOff[p], ms.frameOff[p]
		if 2*max(sent, recvd) > arcs {
			t.Errorf("rank %d: %d arcs fold to %d pairs sent, %d received: not duplicate-heavy", c.Rank(), arcs, sent, recvd)
		}
		for _, col := range []struct {
			name       string
			cap, bound int
		}{
			{"xA", cap(ms.xA), max(sent, recvd)}, {"yA", cap(ms.yA), max(sent, recvd)}, {"wA", cap(ms.wA), max(sent, recvd)},
			{"xB", cap(ms.xB), recvd}, {"yB", cap(ms.yB), recvd}, {"wB", cap(ms.wB), recvd},
		} {
			if col.cap > col.bound {
				t.Errorf("rank %d: %s holds %d records after a cold merge of %d arcs, %d pairs sent, %d received: want at most %d",
					c.Rank(), col.name, col.cap, arcs, sent, recvd, col.bound)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMergeWideWorldSubscribers runs the subscriber marks walk on a world
// wider than 64 ranks, past where a one-word rank bitmask would fit.
func TestMergeWideWorldSubscribers(t *testing.T) {
	if testing.Short() {
		t.Skip("65-rank world under -short")
	}
	g, _, err := gen.Caveman(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := 65
	layout, err := partition.Build(g, partition.Options{P: p, Kind: partition.OneD})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: p, Partitioning: partition.OneD}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		if _, err := st.clusterNew(); err != nil {
			return err
		}
		seedSG, seedK, err := st.mergeSeed()
		if err != nil {
			return err
		}
		seedDump := dumpCoarse(seedSG, seedK, st.dense)
		newSG, k, err := st.merge()
		if err != nil {
			return err
		}
		if got := dumpCoarse(newSG, k, st.dense); got != seedDump {
			t.Errorf("rank %d: wide-world merge differs from seed:\nnew:\n%sseed:\n%s", c.Rank(), got, seedDump)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// newGainAccumulator is a fresh accumulator over n communities.
func newGainAccumulator(n int) *gainAccumulator {
	return &gainAccumulator{w: make([]int64, n), seen: make([]bool, n)}
}
