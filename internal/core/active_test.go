package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Tests for the active-set sweep (docs/PERFORMANCE.md, "Active-set sweep"):
// the arming rule is sound on every iteration of every stage, a converged
// stage evaluates nothing, and a Session seeds exactly the k-hop ball.

// activationOracle audits the arming rule from testIterHook. It keeps each
// stage's labels as of the previous iteration; after iteration i, every owned
// vertex u with a neighbour t whose label changed in i must be armed for
// i+1, or — when t is owned here and precedes u — have been evaluated by the
// same Gauss-Seidel pass after t moved. A hub or ghost changes after the
// sweep (delegate exchange, ghost swap), so nothing short of armed will do
// for those. The oracle clears the stage's seen marks as it goes (a batch
// solve never reads them), so seen means "evaluated this iteration".
type activationOracle struct {
	mu    sync.Mutex
	prev  map[*stage][]int32
	pairs int // (vertex, changed neighbour) pairs audited
	scans int // armed vertices and hubs whose scan was checked against the full sort
	// drop, when set, disarms the stage before the audit of iteration 1: the
	// control that shows the oracle catches a lost arming.
	drop bool
}

func installOracle(t *testing.T, drop bool) *activationOracle {
	t.Helper()
	o := &activationOracle{prev: make(map[*stage][]int32), drop: drop}
	testIterHook = o.audit
	testPushHook = o.auditScans
	t.Cleanup(func() { testIterHook, testPushHook = nil, nil })
	return o
}

// auditScans runs from testPushHook, on the cache the sweep is about to
// read: every armed owned vertex and hub — the ones that sweep evaluates —
// must get the same (stayGain, best, cands) from scanCandidates as from the
// full-sort oracle (checkScan).
func (o *activationOracle) auditScans(s *stage, iter int) error {
	acc, ref := newGainAccumulator(s.n), newGainAccumulator(s.n)
	scans := 0
	for i, u := range s.sg.Owned {
		if !s.active[u] {
			continue
		}
		scans++
		if err := checkScan(s, u, int(s.comm[u]), s.sg.OwnedWDeg[i], s.sg.AdjOwned[i], acc, ref); err != nil {
			return fmt.Errorf("rank %d iter %d: %v", s.rnk, iter, err)
		}
	}
	for i, h := range s.sg.Hubs {
		if !s.hubActive[i] || len(s.sg.AdjHub[i]) == 0 {
			continue
		}
		scans++
		if err := checkScan(s, h, int(s.comm[h]), s.sg.HubWDeg[i], s.sg.AdjHub[i], acc, ref); err != nil {
			return fmt.Errorf("rank %d iter %d: hub: %v", s.rnk, iter, err)
		}
	}
	o.mu.Lock()
	o.scans += scans
	o.mu.Unlock()
	return nil
}

func (o *activationOracle) audit(s *stage, iter int, _ float64) error {
	o.mu.Lock()
	prev := o.prev[s]
	o.mu.Unlock()
	if prev == nil {
		// A clustering stage starts from singletons.
		prev = make([]int32, s.n)
		for v := range prev {
			prev[v] = -1
			if s.comm[v] >= 0 {
				prev[v] = int32(v)
			}
		}
	}
	if o.drop && iter == 1 {
		s.setActive(false)
	}
	pairs := 0
	for i, u := range s.sg.Owned {
		for _, a := range s.sg.AdjOwned[i] {
			t := a.To
			if t == u || prev[t] == s.comm[t] {
				continue
			}
			pairs++
			_, hub := s.hubIndex(t)
			after := !hub && partition.Owner(t, s.p) == s.rnk && t < u && s.seen[u]
			if !s.active[u] && !after {
				return fmt.Errorf("rank %d iter %d: neighbour %d of owned vertex %d went %d -> %d, and %d is neither armed nor evaluated after it",
					s.rnk, iter, t, u, prev[t], s.comm[t], u)
			}
		}
	}
	clear(s.seen)
	copy(prev, s.comm)
	o.mu.Lock()
	o.prev[s] = prev
	o.pairs += pairs
	o.mu.Unlock()
	return nil
}

// TestActivationSound runs the oracle over {delegate with hubs, 1d} × P on
// the golden fixture and an R-MAT, clean and under the benign chaos
// schedules; the same solves check every scan they are about to make against
// the full-sort oracle.
func TestActivationSound(t *testing.T) {
	withInvariants(t)
	rmat, err := gen.RMAT(gen.Graph500RMAT(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"golden", goldenGraph(t)}, {"rmat8", rmat}}
	o := installOracle(t, false)
	for _, gr := range graphs {
		for _, part := range []struct {
			kind  partition.Kind
			dhigh int
		}{{partition.Delegate, 8}, {partition.OneD, 0}} {
			for _, p := range []int{1, 2, 4} {
				opt := Options{P: p, Partitioning: part.kind, DHigh: part.dhigh}
				name := fmt.Sprintf("%s/%v/p=%d", gr.name, part.kind, p)
				if _, err := Run(gr.g, opt); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for seed := int64(1); seed <= 3; seed++ {
					err := comm.RunWorldChaos(p, benignCoreChaos(seed), func(c comm.Comm) error {
						return solveRank(c, gr.g, opt)
					})
					if err != nil {
						t.Fatalf("%s chaos seed %d: %v", name, seed, err)
					}
				}
			}
		}
	}
	if o.pairs == 0 {
		t.Fatal("no label change was audited")
	}
	if o.scans == 0 {
		t.Fatal("no scan was checked against the full sort")
	}
}

// TestActivationOracleCatchesLostArming is the oracle's control: with every
// flag dropped after the first iteration's moves, the audit must fail.
func TestActivationOracleCatchesLostArming(t *testing.T) {
	installOracle(t, true)
	if _, err := Run(goldenGraph(t), Options{P: 2, DHigh: 8}); err == nil {
		t.Fatal("the oracle accepted a stage whose armings were dropped")
	}
}

// TestConvergedSweepEvaluatesNothing pins the idle cost: on a stage where no
// vertex moved anywhere, nothing is armed, and a sweep charges one work unit
// per owned vertex and hub and evaluates none.
func TestConvergedSweepEvaluatesNothing(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	opt, err := (Options{P: p, DHigh: 32}).withDefaults()
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
		s := newStage(c, layout.Parts[c.Rank()], opt)
		steadyState(t, c, s)
		clear(s.seen)
		before := s.workPhase[trace.FindBest]
		_, moved := s.sweep()
		want := int64(len(s.sg.Owned) + len(s.sg.Hubs))
		if got := s.workPhase[trace.FindBest] - before; moved != 0 || got != want {
			return fmt.Errorf("rank %d: converged sweep moved %d and charged %d units, want 0 and %d", s.rnk, moved, got, want)
		}
		for v, seen := range s.seen {
			if seen {
				return fmt.Errorf("rank %d: converged sweep evaluated vertex %d", s.rnk, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSessionSeedsStageFlags checks the Session's half of the incremental
// path: an installed stage has nothing armed, and the seeds a batch names
// (here the 1-hop ball of its endpoints) arm exactly themselves — an owned
// vertex on its owner, a hub on every rank.
func TestSessionSeedsStageFlags(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	opt := Options{P: p, DHigh: 8}
	layout, err := partition.Build(g, opt.PartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	seeds := ballOf(g, randomStream(g, 3, 1, 2, 0)[0], 1)
	err = comm.RunWorld(p, func(c comm.Comm) error {
		ses, err := NewSession(c, layout.Parts[c.Rank()].CloneForServing(), opt)
		if err != nil {
			return err
		}
		defer ses.Close()
		if err := ses.Solve(); err != nil {
			return err
		}
		st := ses.st
		armed := func() map[int]bool {
			got := make(map[int]bool)
			for _, u := range st.sg.Owned {
				if st.active[u] {
					got[u] = true
				}
			}
			for i, h := range st.sg.Hubs {
				if st.hubActive[i] {
					got[h] = true
				}
			}
			return got
		}
		if got := armed(); len(got) != 0 {
			return fmt.Errorf("rank %d: %d vertices armed after install", st.rnk, len(got))
		}
		ses.arm(seeds)
		got := armed()
		for _, v := range seeds {
			_, hub := st.hubIndex(v)
			if (hub || v%p == st.rnk) != got[v] {
				return fmt.Errorf("rank %d: vertex %d (hub=%v) armed=%v", st.rnk, v, hub, got[v])
			}
			delete(got, v)
		}
		if len(got) != 0 {
			return fmt.Errorf("rank %d: armed outside the 1-hop ball: %v", st.rnk, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
