package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/quality"
)

// convergeP is the world size of the converge lane: the benchmark's.
const convergeP = 4

// convergeRule is one stop rule of the sweep.
type convergeRule struct {
	name string
	rule core.StopRule
}

// convergeRules lists the rules the lane sweeps: the absolute θ the solver
// ran before, one relative τ at every level, and Lu et al.'s
// coarse-then-fine threshold at four τ0. The solver's own rule is starred.
func convergeRules() []convergeRule {
	def := core.DefaultStop()
	rules := []convergeRule{
		{"absolute θ = MinGain", core.StopRule{}},
		{fmt.Sprintf("relative τ = %g", def.Tau0), core.StopRule{Tau0: def.Tau0, Scale: 1}},
	}
	for _, tau0 := range []float64{1e-3, 3e-3, 1e-2, 3e-2} {
		r := core.StopRule{Tau0: tau0, Scale: 10}
		name := fmt.Sprintf("coarse-then-fine τ0 = %g", tau0)
		if r == def {
			name += " *"
		}
		rules = append(rules, convergeRule{name, r})
	}
	return rules
}

// convergeSum accumulates one rule's results over a seed's instances.
type convergeSum struct {
	iters, levels, simMS, q, nmi float64
	n                            int
}

func (s *convergeSum) add(res *core.Result, truth graph.Membership) error {
	s.iters += float64(res.Stage1Iters)
	s.levels += float64(res.OuterLevels)
	s.simMS += float64(res.Stage1Sim+res.Stage2Sim) / 1e6
	s.q += res.Modularity
	if truth != nil {
		nmi, err := quality.NMI(res.Membership, truth)
		if err != nil {
			return err
		}
		s.nmi += nmi
	}
	s.n++
	return nil
}

// benchInstance generates instance k of benchmark seed seed, deriving the
// generator seed as the benchmark harness does ((seed·16 + use)·1024 + k,
// use 1 for LFR and 2 for R-MAT), so the full profile's graphs are the
// benchmark's batch-lfr and batch-rmat inputs.
func benchInstance(lfr bool, scale, n int, seed int64, k int) (*graph.Graph, graph.Membership, error) {
	if lfr {
		return gen.LFR(gen.DefaultLFR(n, 0.3, (seed*16+1)*1024+int64(k)))
	}
	g, err := gen.RMAT(gen.Graph500RMAT(scale, (seed*16+2)*1024+int64(k)))
	return g, nil, err
}

// Converge sweeps the clustering stage's stop rule (core.StopRule) on the
// benchmark's two batch graphs at P = 4: Graph500 R-MAT and LFR μ = 0.3,
// scale 16 and n = 60000 with eight instances per seed in the full profile.
// Seed 1 picked the solver's τ0; seed 2 is held out. Per rule and seed it
// reports the means over the instances of stage-1 iterations, clustering
// stages, simulated parallel time and final Q (NMI against the planted
// partition on LFR), and the change against the absolute rule.
func Converge(p Profile) ([]*Table, error) {
	scale, lfrN, insts, seeds := 12, 4000, 2, []int64{1}
	if p.IncludeLarge {
		scale, lfrN, insts, seeds = 16, 60000, 8, []int64{1, 2}
	}
	rules := convergeRules()
	var out []*Table
	for _, lfr := range []bool{false, true} {
		t := &Table{
			Title:  fmt.Sprintf("Converge — stage stop rule on R-MAT scale %d (p=%d, %d instances per seed)", scale, convergeP, insts),
			Header: []string{"rule", "seed", "stage-1 iters", "stages", "sim (ms)", "Δsim", "Q", "ΔQ"},
			Notes: []string{
				"τ_l = τ0/10^l at level l (stage 1 is level 0), floored at MinGain; * = the solver's rule",
				"sim is the simulated parallel time of all stages; Δ is against the absolute rule of the same seed",
			},
		}
		if lfr {
			t.Title = fmt.Sprintf("Converge — stage stop rule on LFR n=%d μ=0.3 (p=%d, %d instances per seed)", lfrN, convergeP, insts)
			t.Header = append(t.Header, "NMI")
		}
		for _, seed := range seeds {
			sums := make([]convergeSum, len(rules))
			for k := 0; k < insts; k++ {
				g, truth, err := benchInstance(lfr, scale, lfrN, seed, k)
				if err != nil {
					return nil, err
				}
				for i, r := range rules {
					res, err := core.RunStop(g, core.Options{P: convergeP}, r.rule)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", r.name, err)
					}
					if err := sums[i].add(res, truth); err != nil {
						return nil, err
					}
				}
			}
			base := sums[0]
			for i, r := range rules {
				s := sums[i]
				n := float64(s.n)
				row := []any{r.name, seed,
					fmt.Sprintf("%.1f", s.iters/n), fmt.Sprintf("%.2f", s.levels/n),
					fmt.Sprintf("%.1f", s.simMS/n), fmt.Sprintf("%+.1f%%", 100*(s.simMS/base.simMS-1)),
					fmt.Sprintf("%.5f", s.q/n), fmt.Sprintf("%+.2f%%", 100*(s.q/base.q-1))}
				if lfr {
					row = append(row, fmt.Sprintf("%.4f", s.nmi/n))
				}
				t.AddRow(row...)
			}
		}
		out = append(out, t)
	}
	return out, nil
}
