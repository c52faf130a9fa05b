package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// fig8 reproduces Figure 8: the execution-time composition of the algorithm
// on the largest available stand-in.
//
//	(a) time of the first clustering stage (with delegates) vs the second
//	    stage (merged graph, no delegates) across processor counts
//	(b) per-iteration breakdown of one stage-1 clustering iteration into
//	    Find Best Community / Broadcast Delegates / Swap Ghost Vertex
//	    State / Other
func (s *Suite) fig8() ([]*Table, error) {
	name, _, err := s.fig6Graph() // same dataset as the paper (UK-2007 stand-in)
	if err != nil {
		return nil, err
	}
	stages := &Table{
		Title:  fmt.Sprintf("Figure 8(a) — clustering stage times on %s (stand-in)", name),
		Header: []string{"p", "stage1 (ms)", "stage2+ (ms)", "stage1 iters", "outer levels"},
		Notes: []string{
			"paper's shape: stage 1 dominates and shrinks with p; stage 2 is much shorter",
			"times are simulated parallel times (per-iteration max across ranks of rank busy time)",
		},
	}
	breakdown := &Table{
		Title:  fmt.Sprintf("Figure 8(b) — per-iteration time breakdown on %s (stand-in)", name),
		Header: []string{"p", "FindBest (µs)", "BcastDelegates (µs)", "SwapGhost (µs)", "Other (µs)"},
		Notes: []string{
			"paper's shape: FindBest dominates and shrinks with p; BcastDelegates small; SwapGhost roughly flat",
			"compute-only per-phase times; the collectives' wait time is not separable on a shared host",
		},
	}
	procs := s.Profile.Procs[len(s.Profile.Procs)/2:] // the larger half of the sweep
	for _, pp := range procs {
		res, err := s.solve(name, core.Options{P: pp})
		if err != nil {
			return nil, err
		}
		stages.AddRow(pp, ms(res.Stage1Sim), ms(res.Stage2Sim), res.Stage1Iters, res.OuterLevels)
		us := func(ph trace.Phase) string {
			return fmt.Sprintf("%.0f", float64(res.BusyBreakdown.PerIter(ph).Nanoseconds())/1000)
		}
		breakdown.AddRow(pp, us(trace.FindBest), us(trace.BroadcastDelegates),
			us(trace.SwapGhost), us(trace.Other))
	}
	return []*Table{stages, breakdown}, nil
}
