package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/partition"
)

// comm is an extra experiment backing the paper's Section V-C claim
// ("we experiment the communication cost for large graphs, which is not
// fully investigated in existing research work"): exact per-rank
// communication volume of a full clustering run, delegate vs 1D
// partitioning, across processor counts. Balance is reported as
// max-rank share / perfect share (1.0 = perfectly balanced).
func (s *Suite) comm() ([]*Table, error) {
	name, g, err := s.fig6Graph()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Communication cost (§V-C) — measured traffic on %s (stand-in)", name),
		Header: []string{"p", "partitioning", "total MB", "max-rank MB", "comm imbalance", "bytes/edge"},
		Notes: []string{
			"comm imbalance = max-rank bytes ÷ (total/p); 1.00 is perfectly balanced",
			"paper's shape: delegate partitioning balances communication; 1D concentrates it",
		},
	}
	procs := s.Profile.Procs[len(s.Profile.Procs)/2:]
	for _, pp := range procs {
		if pp < 2 {
			continue
		}
		for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
			res, err := s.solve(name, core.Options{P: pp, Partitioning: kind})
			if err != nil {
				return nil, err
			}
			total := res.CommStats.TotalBytesSent()
			maxRank := res.CommStats.MaxBytesSent()
			imb := float64(maxRank) * float64(pp) / float64(total)
			t.AddRow(pp, kind.String(),
				fmt.Sprintf("%.2f", float64(total)/1e6),
				fmt.Sprintf("%.2f", float64(maxRank)/1e6),
				fmt.Sprintf("%.2f", imb),
				fmt.Sprintf("%.1f", float64(total)/float64(g.NumEdges())))
		}
	}
	return []*Table{t}, nil
}
