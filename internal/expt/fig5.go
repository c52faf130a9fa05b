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
// the paper's enhanced heuristic, beside (d) the parallel algorithm with
// the solver's default sized heuristic, which orders remote moves by
// community size instead of by label. One table per dataset plus a summary
// of final modularities.
func (s *Suite) fig5() ([]*Table, error) {
	p := s.Profile
	summary := &Table{
		Title: "Figure 5 (summary) — final modularity by method",
		Header: []string{"Dataset", "sequential", "parallel simple", "parallel enhanced", "parallel sized",
			"iters simple", "iters enhanced", "iters sized"},
		Notes: []string{
			"paper's shape: enhanced ≈ sequential, simple clearly lower (e.g. DBLP 0.57 vs 0.80/0.82)",
			"sized (the default) keeps enhanced's tie preferences; a remote move must go to the larger community, not the smaller label",
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
		enhanced, err := s.solve(name, core.Options{P: p.DefaultP, Heuristic: core.HeuristicEnhanced})
		if err != nil {
			return nil, err
		}
		sized, err := s.solve(name, core.Options{P: p.DefaultP}) // HeuristicSized is the zero value
		if err != nil {
			return nil, err
		}

		t := &Table{
			Title:  fmt.Sprintf("Figure 5 — convergence on %s (p=%d)", name, p.DefaultP),
			Header: []string{"iter", "sequential", "parallel simple", "parallel enhanced", "parallel sized"},
		}
		n := max(len(seq.QTrace), len(simple.QTrace), len(enhanced.QTrace), len(sized.QTrace))
		cell := func(tr []float64, i int) string {
			if i < len(tr) {
				return fmt.Sprintf("%.4f", tr[i])
			}
			return ""
		}
		for i := 0; i < n; i++ {
			t.AddRow(i+1, cell(seq.QTrace, i), cell(simple.QTrace, i), cell(enhanced.QTrace, i), cell(sized.QTrace, i))
		}
		out = append(out, t)
		summary.AddRow(name, seq.Modularity, simple.Modularity, enhanced.Modularity, sized.Modularity,
			simple.Stage1Iters, enhanced.Stage1Iters, sized.Stage1Iters)
	}
	out = append(out, summary)
	return out, nil
}
