package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/louvain"
)

// Fig5Datasets are the six datasets the paper plots in Figure 5.
var Fig5Datasets = []string{"Amazon", "DBLP", "ND-Web", "YouTube", "LFR"}

// fig5 reproduces Figure 5: modularity convergence per clustering iteration
// for (a) the sequential Louvain algorithm, (b) the parallel algorithm with
// the simple minimum-label heuristic, and (c) the parallel algorithm with
// the paper's enhanced heuristic. One table per dataset plus a summary of
// final modularities.
func (s *Suite) fig5() ([]*Table, error) {
	p := s.Profile
	summary := &Table{
		Title:  "Figure 5 (summary) — final modularity by method",
		Header: []string{"Dataset", "sequential", "parallel simple", "parallel enhanced", "iters simple", "iters enhanced"},
		Notes: []string{
			"paper's shape: enhanced ≈ sequential, simple clearly lower (e.g. DBLP 0.57 vs 0.80/0.82)",
		},
	}
	var out []*Table
	for _, name := range Fig5Datasets {
		g, _, err := s.load(name)
		if err != nil {
			return nil, err
		}
		seq := louvain.Run(g, louvain.Options{TrackTrace: true})
		simple, err := s.solve(name, core.Options{P: p.DefaultP, Heuristic: core.HeuristicSimple})
		if err != nil {
			return nil, err
		}
		enhanced, err := s.solve(name, core.Options{P: p.DefaultP}) // HeuristicEnhanced is the zero value
		if err != nil {
			return nil, err
		}

		t := &Table{
			Title:  fmt.Sprintf("Figure 5 — convergence on %s (p=%d)", name, p.DefaultP),
			Header: []string{"iter", "sequential", "parallel simple", "parallel enhanced"},
		}
		n := max(len(seq.QTrace), max(len(simple.QTrace), len(enhanced.QTrace)))
		cell := func(tr []float64, i int) string {
			if i < len(tr) {
				return fmt.Sprintf("%.4f", tr[i])
			}
			return ""
		}
		for i := 0; i < n; i++ {
			t.AddRow(i+1, cell(seq.QTrace, i), cell(simple.QTrace, i), cell(enhanced.QTrace, i))
		}
		out = append(out, t)
		summary.AddRow(name, seq.Modularity, simple.Modularity, enhanced.Modularity,
			simple.Stage1Iters, enhanced.Stage1Iters)
	}
	out = append(out, summary)
	return out, nil
}
