package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// stopIter feeds a Q trace (every iteration moving something unless moved
// says otherwise) to a stopper and returns the iteration the stage ends at,
// or 0 if it runs past the trace.
func stopIter(tau float64, trace []float64, moved []int64) int {
	st := newStopper(tau)
	for i, q := range trace {
		m := int64(1)
		if i < len(moved) {
			m = moved[i]
		}
		if st.done(i+1, q, m) {
			return i + 1
		}
	}
	return 0
}

// TestStopDecision pins the stage stop rule on the four shapes a stage's Q
// trace takes: R-MAT's creep after the climb, a clean climb to a standstill,
// the period-2 oscillation of the coarse levels, and a falling Q. The creep
// is the one the level decides. At 5e-5 per iteration, stage 1 (τ0 = 1e-2 at
// Q ≈ 0.067, a threshold of ≈7e-4) stops three iterations after the climb
// ends, as three creeping steps stay below the threshold over the best;
// level 1 (τ = 1e-3, ≈7e-5) and the bare MinGain test run it to the cap.
func TestStopDecision(t *testing.T) {
	creep := []float64{0.020, 0.045, 0.060, 0.066}
	for q := 0.0665; len(creep) < maxInnerIters+10; q += 5e-5 {
		creep = append(creep, q)
	}
	climb := []float64{0.30, 0.45, 0.55, 0.59, 0.60, 0.6001}
	oscillate := []float64{0.067756, 0.067501, 0.067756, 0.067501, 0.067756, 0.067501, 0.067756, 0.067501}
	fall := []float64{0.50, 0.49, 0.48, 0.47, 0.46, 0.45}
	level0, level1 := defaultStop.tau(0), defaultStop.tau(1)
	for _, tc := range []struct {
		name  string
		tau   float64
		trace []float64
		moved []int64
		want  int
	}{
		{"creep/level0", level0, creep, nil, 7},
		{"creep/level1", level1, creep, nil, maxInnerIters},
		{"creep/MinGain", 0, creep, nil, maxInnerIters},
		{"climb/level0", level0, climb, []int64{900, 300, 80, 20, 4, 0}, 6},
		{"climb/MinGain", 0, climb, []int64{900, 300, 80, 20, 4, 0}, 6},
		{"oscillate/level1", level1, oscillate, nil, 4},
		{"oscillate/MinGain", 0, oscillate, nil, 4},
		{"fall/level0", level0, fall, nil, 4},
		{"fall/MinGain", 0, fall, nil, 4},
	} {
		if got := stopIter(tc.tau, tc.trace, tc.moved); got != tc.want {
			t.Errorf("%s: stage stops at iteration %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestStopRuleLevels pins τ_l.
func TestStopRuleLevels(t *testing.T) {
	for _, tc := range []struct {
		rule  StopRule
		level int
		want  float64
	}{
		{defaultStop, 0, 1e-2},
		{defaultStop, 1, 1e-3},
		{defaultStop, 2, 1e-4},
		{StopRule{Tau0: 1e-2, Scale: 1}, 3, 1e-2},
		{StopRule{Tau0: 1e-2}, 2, 1e-2},
		{StopRule{}, 0, 0},
	} {
		if got := tc.rule.tau(tc.level); math.Abs(got-tc.want) > 1e-12*tc.want {
			t.Errorf("%+v.tau(%d) = %g, want %g", tc.rule, tc.level, got, tc.want)
		}
	}
}

// TestStopRuleEndsCreep runs rmat:scale=13 at seeds 1 to 8 under the
// solver's rule and under the bare MinGain test, three rows a seed: as
// generated at the default threshold, and relabelled by π⁻¹ (unscrambled),
// where the solver sees the unpermuted ids, at the default threshold and at
// the old default, max(P, 4·arcs/n), whose many hubs made stage 1 creep.
// On every row the rule must take no more stage-1 iterations and no more
// simulated time than the MinGain test, and give up at most 0.005 of Q; over
// the 24 rows the median Q difference must be no worse than zero. One
// sample cannot carry a "no worse Q" clause: the rule stops a stage that
// the MinGain test runs on, so single rows fall on either side. The pinned
// row, seed 1 unpermuted at the old default, is the creep itself: the rule
// must end it, strictly fewer iterations and less simulated time. The
// resident stage of a Session keeps the MinGain test, which the golden and
// protocol fixtures pin.
func TestStopRuleEndsCreep(t *testing.T) {
	const (
		seeds  = 8
		qSlack = 0.005
	)
	var dq []float64
	for seed := 1; seed <= seeds; seed++ {
		g, _, err := gen.ParseSpec(fmt.Sprintf("rmat:scale=13,seed=%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		oldDefault := max(4, 4*int(g.NumArcs())/g.NumVertices())
		unperm := unscrambled(t, g)
		for _, row := range []struct {
			name   string
			g      *graph.Graph
			dhigh  int
			pinned bool // the rule must end a creep: strictly fewer iterations and less time
		}{
			{"as generated", g, 0, false},
			{"unpermuted", unperm, oldDefault, seed == 1},
			{"unpermuted", unperm, 0, false},
		} {
			name := fmt.Sprintf("seed %d, %s, DHigh %d", seed, row.name, row.dhigh)
			opt := Options{P: 4, DHigh: row.dhigh}
			old, err := RunStop(row.g, opt, StopRule{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(row.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			sim, oldSim := res.Stage1Sim+res.Stage2Sim, old.Stage1Sim+old.Stage2Sim
			worse := res.Stage1Iters > old.Stage1Iters || sim > oldSim
			if row.pinned {
				worse = res.Stage1Iters >= old.Stage1Iters || sim >= oldSim
			}
			if worse {
				t.Errorf("%s: stage 1 ran %d iterations (%v simulated in all) against %d (%v) under the bare MinGain test",
					name, res.Stage1Iters, sim, old.Stage1Iters, oldSim)
			}
			d := res.Modularity - old.Modularity
			if d < -qSlack {
				t.Errorf("%s: Q = %.6f, %.6f below the bare MinGain test's %.6f", name, res.Modularity, -d, old.Modularity)
			}
			dq = append(dq, d)
			t.Logf("%s: %d hubs, stage 1 %d iterations (%v sim), MinGain test %d (%v), ΔQ %+.5f", name, res.HubCount,
				res.Stage1Iters, sim, old.Stage1Iters, oldSim, d)
		}
	}
	slices.Sort(dq)
	if med := (dq[len(dq)/2-1] + dq[len(dq)/2]) / 2; med < 0 {
		t.Errorf("median ΔQ over %d rows %+.5f, want >= 0", len(dq), med)
	}
}
