package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/quality"
)

// Table2Datasets are the datasets the paper scores in Table II.
var Table2Datasets = []string{"ND-Web", "Amazon"}

// table2 reproduces the paper's Table II: quality measurements (NMI,
// F-measure, NVD, RI, ARI, JI) of the distributed algorithm's communities
// against ground truth. The stand-ins carry planted LFR communities as
// truth.
func (s *Suite) table2() ([]*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table II — Quality measurements (p=%d, sized heuristic)", s.Profile.DefaultP),
		Header: []string{"Dataset", "NMI", "F-measure", "NVD", "RI", "ARI", "JI"},
		Notes: []string{
			"all measures but NVD: higher is better; NVD is a distance (lower is better)",
			"paper reports NMI 0.80-0.85 on these datasets",
		},
	}
	for _, name := range Table2Datasets {
		_, truth, err := s.load(name)
		if err != nil {
			return nil, err
		}
		if truth == nil {
			return nil, fmt.Errorf("dataset %s has no ground truth", name)
		}
		res, err := s.solve(name, core.Options{P: s.Profile.DefaultP})
		if err != nil {
			return nil, err
		}
		q, err := quality.Compare(res.Membership, truth)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, q.NMI, q.FMeasure, q.NVD, q.RI, q.ARI, q.JI)
	}
	return []*Table{t}, nil
}
