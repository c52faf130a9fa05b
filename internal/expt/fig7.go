package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
)

// fig7 reproduces Figure 7: total running time of the delegate-partitioned
// algorithm vs the 1D-partitioned distributed Louvain (the paper's MPI
// re-implementation of Cheong et al.) across datasets of growing size.
func (s *Suite) fig7() ([]*Table, error) {
	// The imbalance penalty of 1D partitioning grows with the processor
	// count, so this comparison runs at the sweep's largest p (the paper
	// uses 1024+, where its 1D baseline stops completing at all).
	pp := s.Profile.Procs[len(s.Profile.Procs)-1]
	t := &Table{
		Title:  fmt.Sprintf("Figure 7 — total running time, delegate vs 1D partitioning (p=%d)", pp),
		Header: []string{"Dataset", "edges", "delegate (ms)", "1D (ms)", "1D/delegate", "Q delegate", "Q 1D"},
		Notes: []string{
			"paper's shape: similar on small graphs, 1D increasingly slower as size and skew grow",
			"times are simulated parallel clustering times (max-rank busy per iteration)",
			"(on UK-2005 the paper's 1D baseline did not complete at 1024+ processors)",
		},
	}
	for _, d := range s.Profile.datasets() {
		g, _, err := s.load(d.Name)
		if err != nil {
			return nil, err
		}
		del, err := s.solve(d.Name, core.Options{P: pp}) // partition.Delegate is the zero value
		if err != nil {
			return nil, err
		}
		oneD, err := s.solve(d.Name, core.Options{P: pp, Partitioning: partition.OneD})
		if err != nil {
			return nil, err
		}
		t.AddRow(d.Name, g.NumEdges(), ms(clustering(del)), ms(clustering(oneD)),
			fmt.Sprintf("%.2f", float64(clustering(oneD))/float64(clustering(del))), del.Modularity, oneD.Modularity)
	}
	return []*Table{t}, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}
