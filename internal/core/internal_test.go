package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/wire"
)

func TestCombineHubProposalsPicksMaxAndTieBreaks(t *testing.T) {
	enc := func(props ...hubProposal) []byte {
		b := wire.NewBuffer(0)
		for _, p := range props {
			b.PutF64(p.improvement)
			b.PutVarint(int64(p.target))
		}
		return b.Bytes()
	}
	a := enc(hubProposal{1.0, 5}, hubProposal{negInf, 9}, hubProposal{0.5, 3})
	b := enc(hubProposal{2.0, 7}, hubProposal{0.1, 2}, hubProposal{0.5, 1})
	out, err := combineHubProposals(a, b, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(out)
	// hub 0: b wins on improvement
	if imp, tgt := rd.F64(), rd.Varint(); imp != 2.0 || tgt != 7 {
		t.Errorf("hub 0: (%g,%d)", imp, tgt)
	}
	// hub 1: a had -Inf, b wins
	if imp, tgt := rd.F64(), rd.Varint(); imp != 0.1 || tgt != 2 {
		t.Errorf("hub 1: (%g,%d)", imp, tgt)
	}
	// hub 2: tie on improvement, smaller target wins
	if imp, tgt := rd.F64(), rd.Varint(); imp != 0.5 || tgt != 1 {
		t.Errorf("hub 2: (%g,%d)", imp, tgt)
	}
	if rd.Err() != nil || rd.Remaining() != 0 {
		t.Fatalf("decode: err=%v rem=%d", rd.Err(), rd.Remaining())
	}
}

func TestCombineHubProposalsCommutative(t *testing.T) {
	enc := func(props ...hubProposal) []byte {
		b := wire.NewBuffer(0)
		for _, p := range props {
			b.PutF64(p.improvement)
			b.PutVarint(int64(p.target))
		}
		return b.Bytes()
	}
	a := enc(hubProposal{1.5, 4}, hubProposal{0.0, 8})
	b := enc(hubProposal{1.5, 2}, hubProposal{-1.0, 6})
	ab, errAB := combineHubProposals(a, b, 2, 10)
	ba, errBA := combineHubProposals(b, a, 2, 10)
	if errAB != nil || errBA != nil {
		t.Fatal(errAB, errBA)
	}
	if string(ab) != string(ba) {
		t.Error("combine is not commutative")
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
		defer s.close()
		// lookup(x) = x*10, evaluated at owner x%4 and nowhere else.
		queries := []int{c.Rank(), 7, 0, 13, c.Rank() + 4}
		res, err := s.resolveQueries(queries, func(x int) int {
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
		defer s.close()
		res, err := s.resolveQueries(nil, func(x int) int { return x })
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

func TestOptionsDefaults(t *testing.T) {
	opt, err := Options{P: 4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if opt.MinGain != 1e-6 || opt.MaxInnerIters != 100 || opt.DHigh != 4 {
		t.Errorf("defaults: %+v", opt)
	}
	if _, err := (Options{}).withDefaults(); err == nil {
		t.Error("expected error for P = 0")
	}
}

func TestRunRankMatchesRun(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 0.25, 77))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Drive RunRank manually over an in-process world and assemble.
	pieces := make([]*RankResult, 3)
	err = comm.RunWorld(3, func(c comm.Comm) error {
		res, err := RunRank(c, g, Options{P: 3})
		if err != nil {
			return err
		}
		pieces[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := make(graph.Membership, g.NumVertices())
	for _, piece := range pieces {
		for i, u := range piece.Tracked {
			m[u] = piece.Labels[i]
		}
	}
	m.Normalize()
	if pieces[0].Modularity != want.Modularity {
		t.Errorf("RunRank Q = %v, Run Q = %v", pieces[0].Modularity, want.Modularity)
	}
	for i := range m {
		if m[i] != want.Membership[i] {
			t.Fatal("memberships differ between Run and RunRank")
		}
	}
}

func TestRunRankPMismatch(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(2, func(c comm.Comm) error {
		_, err := RunRank(c, g, Options{P: 5})
		if err == nil {
			t.Error("expected P mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGainAccumulator(t *testing.T) {
	acc := newGainAccumulator(10)
	acc.add(3, 1.5)
	acc.add(7, 2.0)
	acc.add(3, 0.5)
	if acc.w[3] != 2.0 || acc.w[7] != 2.0 {
		t.Errorf("weights: %v", acc.w)
	}
	acc.add(1, 1.0)
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
func (s *stage) scanCandidatesFullSort(u, cu int, k float64, adj []partition.Arc, acc *gainAccumulator) (stayGain, best float64, cands []int) {
	acc.reset()
	for _, a := range adj {
		if a.To == u {
			continue
		}
		acc.add(int(s.comm[a.To]), a.W)
	}
	totCu := s.lookupTot(cu) - k
	stayGain = acc.w[cu] - s.gamma*totCu*k/s.m2

	best = stayGain
	sort.Ints(acc.keys)
	for _, c := range acc.keys {
		if c == cu {
			continue
		}
		gain := acc.w[c] - s.gamma*s.lookupTot(c)*k/s.m2
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
func checkScan(s *stage, u, cu int, k float64, adj []partition.Arc, acc, ref *gainAccumulator) error {
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
	for _, h := range []Heuristic{HeuristicEnhanced, HeuristicSimple, HeuristicStrict} {
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
	)
	shapes := []string{"random", "ladder-stay", "ladder-max", "ties", "no-cu", "single", "below-floor"}
	rng := rand.New(rand.NewSource(23))
	s := &stage{
		comm: make([]int32, n), tot: make([]float64, n), size: make([]int32, n), cached: make([]bool, n),
		gamma: 1, m2: 1000,
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
		k := 1 + 4*rng.Float64()
		// With Σtot(c) = 0 off cu and Σtot(cu) = k, a gain is the arc weight
		// itself, so the shapes below place gains exactly.
		for c := range s.tot {
			s.tot[c] = 0
			s.size[c] = int32(rng.Intn(3))
		}
		s.tot[cu] = k
		gains := make([]float64, len(labels))
		for j := range gains {
			switch shape {
			case "random":
				gains[j] = 2 * rng.Float64()
			case "ladder-stay", "single", "no-cu":
				gains[j] = 1 + float64(rng.Intn(13)-6)*gainEps/2
			case "ladder-max":
				gains[j] = 2 + float64(rng.Intn(13)-6)*gainEps/2
				if rng.Intn(3) == 0 {
					gains[j] = 1 + rng.Float64()/2
				}
			case "ties":
				gains[j] = float64(1 + rng.Intn(3))
			case "below-floor":
				gains[j] = 1 - gainEps - rng.Float64()
			}
		}
		if shape == "random" {
			for c := range s.tot {
				s.tot[c] = s.m2 * rng.Float64()
			}
		}
		// One neighbour per label, in random order (the accumulator's keys are
		// in first-touch order), plus a self-loop the scan must skip.
		var adj []partition.Arc
		for j, c := range labels {
			w := gains[j]
			switch {
			case c != cu:
			case shape == "no-cu":
				continue
			case shape == "ladder-max":
				w = 0.5
			case shape != "random":
				w = 1
			}
			s.comm[c] = int32(c)
			adj = append(adj, partition.Arc{To: c, W: w})
		}
		adj = append(adj, partition.Arc{To: 0, W: 3})
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
	// Strict: only downward anywhere.
	s = mk(HeuristicStrict)
	if s.allowMove(3, 5) {
		t.Error("strict should block upward move")
	}
	if !s.allowMove(5, 3) {
		t.Error("strict should allow downward move")
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
	debugInvariants = true
	defer func() { debugInvariants = false }()
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

func TestCommModelCost(t *testing.T) {
	m := CommModel{LatencyNS: 1000, BytesPerNS: 10}
	// 3 messages, 5000 bytes: 3*1000 + 5000/10 = 3500 ns.
	if got := m.costNS(3, 5000); got != 3500 {
		t.Errorf("costNS = %d, want 3500", got)
	}
	if got := m.costNS(0, 0); got != 0 {
		t.Errorf("costNS(0,0) = %d", got)
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
	// A slower fabric must cost more simulated comm time.
	slow, err := Run(g, Options{P: 4, Comm: CommModel{LatencyNS: 100000, BytesPerNS: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Stage1CommSim <= res.Stage1CommSim {
		t.Errorf("slow fabric comm sim %v <= default %v", slow.Stage1CommSim, res.Stage1CommSim)
	}
	// Compute sim must be unaffected by the comm model.
	if slow.Stage1Sim != res.Stage1Sim {
		t.Errorf("comm model changed compute sim: %v vs %v", slow.Stage1Sim, res.Stage1Sim)
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
	weights := make([]float64, p)
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
		var local float64
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
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	if math.Abs(totalW-g.TotalWeight2()) > 1e-6 {
		t.Errorf("merged 2m = %g, want %g", totalW, g.TotalWeight2())
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

// dumpCoarse renders every field of a coarse subgraph, with float weights
// as raw bits, so string equality is bit-level equality of the merge
// result (including the dense translation table the next level runs on).
func dumpCoarse(sg *partition.Subgraph, k int, dense []int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d rank=%d p=%d gv=%d\ndense=%v\n", k, sg.Rank, sg.P, sg.GlobalVertices, dense)
	for i, v := range sg.Owned {
		fmt.Fprintf(&b, "v%d wdeg=%016x", v, math.Float64bits(sg.OwnedWDeg[i]))
		for _, a := range sg.AdjOwned[i] {
			fmt.Fprintf(&b, " %d:%016x", a.To, math.Float64bits(a.W))
		}
		fmt.Fprintf(&b, " subs=%v\n", sg.Subscribers[v])
	}
	fmt.Fprintf(&b, "ghosts=%v\n", sg.Ghosts)
	return b.String()
}

// TestMergeMatchesSeedCrossMatrix runs the zero-map merge back-to-back with
// the retained seed implementation (merge_seed_test.go) on the same
// converged stage and demands byte-identical coarse subgraphs — weights
// compared as raw float bits — across the full configuration matrix:
// workers {1,4} x both partitionings x P {1,2,4}. For a fixed
// (partitioning, P) the coarse graph must also be identical across worker
// counts, per the determinism regime.
func TestMergeMatchesSeedCrossMatrix(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 91))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
		for _, p := range []int{1, 2, 4} {
			layout, err := partition.Build(g, partition.Options{P: p, Kind: kind, DHigh: 40})
			if err != nil {
				t.Fatal(err)
			}
			var want []string // per-rank dumps at the first worker count
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("kind=%d/p=%d/w=%d", kind, p, workers)
				opt, err := (Options{P: p, Workers: workers, DHigh: 40, Partitioning: kind}).withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				dumps := make([]string, p)
				err = comm.RunWorld(p, func(c comm.Comm) error {
					st := newStage(c, layout.Parts[c.Rank()], opt)
					defer st.close()
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
					got := dumpCoarse(newSG, k, st.dense)
					if got != seedDump {
						t.Errorf("%s rank %d: merge() differs from seed:\nnew:\n%sseed:\n%s", name, c.Rank(), got, seedDump)
					}
					if !reflect.DeepEqual(newSG, seedSG) {
						t.Errorf("%s rank %d: DeepEqual mismatch between merge() and seed subgraphs", name, c.Rank())
					}
					dumps[c.Rank()] = got
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want == nil {
					want = dumps
				} else {
					for r := range dumps {
						if dumps[r] != want[r] {
							t.Errorf("%s rank %d: coarse graph differs from the first worker count of this (kind, p)", name, r)
						}
					}
				}
			}
		}
	}
}

// TestMergePreaggWireVolume is the wire-volume property test: over the
// same converged stage, the key-grouped frames of the new merge must ship
// no more collective payload bytes than the seed's one-record-per-arc
// frames — strictly fewer on a clustered graph at P=4 — while decoding to
// bit-identical totals. Snapshots of the process-global collective
// counters are taken by rank 0 between double barriers, so no rank can be
// inside either merge while a snapshot is read.
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
	trace.EnableCollectiveStats(true)
	defer trace.EnableCollectiveStats(false)
	var seedBytes, newBytes int64
	snap := func(c comm.Comm, into *trace.CollectiveStat) error {
		if err := comm.Barrier(c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			*into = trace.CollectiveTotals()
		}
		return comm.Barrier(c)
	}
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		defer st.close()
		if _, err := st.clusterNew(); err != nil {
			return err
		}
		var t0, t1, t2 trace.CollectiveStat
		if err := snap(c, &t0); err != nil {
			return err
		}
		seedSG, _, err := st.mergeSeed()
		if err != nil {
			return err
		}
		if err := snap(c, &t1); err != nil {
			return err
		}
		newSG, _, err := st.merge()
		if err != nil {
			return err
		}
		if err := snap(c, &t2); err != nil {
			return err
		}
		if !reflect.DeepEqual(seedSG.OwnedWDeg, newSG.OwnedWDeg) {
			t.Errorf("rank %d: decoded weighted degrees differ between seed and pre-aggregated merge", c.Rank())
		}
		if c.Rank() == 0 {
			seedBytes = t1.Bytes - t0.Bytes
			newBytes = t2.Bytes - t1.Bytes
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if newBytes <= 0 || seedBytes <= 0 {
		t.Fatalf("collective counters recorded nothing: seed=%d new=%d", seedBytes, newBytes)
	}
	if newBytes >= seedBytes {
		t.Errorf("pre-aggregated merge shipped %d bytes, seed shipped %d: want strictly fewer", newBytes, seedBytes)
	}
	t.Logf("merge wire volume: seed=%dB preagg=%dB (%.1f%% of seed)", seedBytes, newBytes, 100*float64(newBytes)/float64(seedBytes))
}

// TestMergeWideWorldSubscribers covers the p > 64 subscriber path, where
// the per-row destination bitmask no longer fits a uint64 and the merge
// falls back to the boolean-mark walk.
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
		defer st.close()
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
