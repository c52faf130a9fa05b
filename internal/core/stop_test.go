package core

import (
	"math"
	"testing"

	"repro/internal/gen"
)

// stopIter feeds a Q trace (every iteration moving something unless moved
// says otherwise) to a stopper and returns the iteration the stage ends at,
// or 0 if it runs past the trace.
func stopIter(tau float64, maxIters int, trace []float64, moved []int64) int {
	st := newStopper(tau, Options{MaxInnerIters: maxIters})
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
// is the one the level decides. At 5e-5 per iteration, stage 1 (τ0 = 3e-3 at
// Q ≈ 0.067, a threshold of ≈2e-4) stops three iterations after the climb
// ends, as three creeping steps stay below the threshold over the best;
// level 1 (τ = 3e-4, ≈2e-5) and the bare MinGain test run it to the cap.
func TestStopDecision(t *testing.T) {
	creep := []float64{0.020, 0.045, 0.060, 0.066}
	for q := 0.0665; len(creep) < 40; q += 5e-5 {
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
		{"creep/level0", level0, creep, nil, 8},
		{"creep/level1", level1, creep, nil, 30},
		{"creep/MinGain", 0, creep, nil, 30},
		{"climb/level0", level0, climb, []int64{900, 300, 80, 20, 4, 0}, 6},
		{"climb/MinGain", 0, climb, []int64{900, 300, 80, 20, 4, 0}, 6},
		{"oscillate/level1", level1, oscillate, nil, 4},
		{"oscillate/MinGain", 0, oscillate, nil, 4},
		{"fall/level0", level0, fall, nil, 4},
		{"fall/MinGain", 0, fall, nil, 4},
	} {
		if got := stopIter(tc.tau, 30, tc.trace, tc.moved); got != tc.want {
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
		{defaultStop, 0, 3e-3},
		{defaultStop, 1, 3e-4},
		{defaultStop, 2, 3e-5},
		{StopRule{Tau0: 1e-2, Scale: 1}, 3, 1e-2},
		{StopRule{Tau0: 1e-2}, 2, 1e-2},
		{StopRule{}, 0, 0},
	} {
		if got := tc.rule.tau(tc.level); math.Abs(got-tc.want) > 1e-12*tc.want {
			t.Errorf("%+v.tau(%d) = %g, want %g", tc.rule, tc.level, got, tc.want)
		}
	}
}

// TestStopRuleEndsCreep runs one R-MAT whose stage 1 creeps: under the bare
// MinGain test it runs 33 iterations, under the solver's rule 19, for less
// simulated time and no worse Q. The pinned row holds DHigh at the old
// default, max(P, 4·arcs/n), whose many hubs made the creep; the default
// threshold's row must be no worse. The resident stage of a Session keeps
// the MinGain test, which the golden and protocol fixtures pin.
func TestStopRuleEndsCreep(t *testing.T) {
	g, _, err := gen.ParseSpec("rmat:scale=13,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, dhigh := range []int{max(4, 4*int(g.NumArcs())/g.NumVertices()), 0} {
		opt := Options{P: 4, DHigh: dhigh}
		old, err := RunStop(g, opt, StopRule{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		worse := res.Stage1Iters > old.Stage1Iters || res.Stage1Sim+res.Stage2Sim > old.Stage1Sim+old.Stage2Sim
		if dhigh > 0 {
			worse = res.Stage1Iters >= old.Stage1Iters || res.Stage1Sim+res.Stage2Sim >= old.Stage1Sim+old.Stage2Sim
		}
		if worse {
			t.Errorf("DHigh %d: stage 1 ran %d iterations (%v simulated in all) against %d (%v) under the bare MinGain test",
				dhigh, res.Stage1Iters, res.Stage1Sim+res.Stage2Sim, old.Stage1Iters, old.Stage1Sim+old.Stage2Sim)
		}
		if res.Modularity < old.Modularity {
			t.Errorf("DHigh %d: Q = %.6f, below the bare MinGain test's %.6f", dhigh, res.Modularity, old.Modularity)
		}
		t.Logf("DHigh %d: %d hubs, stage 1 %d iterations (%v sim), MinGain test %d (%v)", dhigh, res.HubCount,
			res.Stage1Iters, res.Stage1Sim+res.Stage2Sim, old.Stage1Iters, old.Stage1Sim+old.Stage2Sim)
	}
}
