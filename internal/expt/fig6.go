package expt

import (
	"fmt"
	"sort"

	"repro/internal/partition"
)

// fig6 reproduces Figure 6: workload and communication balance of 1D vs
// delegate partitioning.
//
//	(a) distribution of per-rank edge counts at the largest processor count
//	(b) distribution of per-rank ghost counts at the largest processor count
//	(c) workload imbalance W = max/avg − 1 across processor counts
//	(d) maximum per-rank ghost count across processor counts
//
// Partition analysis involves no clustering, so the full profile keeps the
// paper's processor counts (1024/2048/4096).
func (s *Suite) fig6() ([]*Table, error) {
	name, g, err := s.fig6Graph()
	if err != nil {
		return nil, err
	}
	procs := s.Profile.PartitionProcs
	largest := procs[len(procs)-1]

	// Hub threshold: the paper's dhigh = p assumes hubs whose degrees reach
	// the millions (UK-2007). The stand-in's tail is proportionally
	// shorter, so the threshold is pinned at twice the average degree —
	// the same thin-tail hub fraction the paper operates with.
	dhigh := 2 * int(g.NumArcs()) / g.NumVertices()

	census := func(pp int, kind partition.Kind) (partition.Census, error) {
		l, err := partition.Build(g, partition.Options{P: pp, Kind: kind, DHigh: dhigh})
		if err != nil {
			return partition.Census{}, err
		}
		return l.Census(), nil
	}

	// (a)+(b): distribution summary at the largest processor count.
	dist := &Table{
		Title: fmt.Sprintf("Figure 6(a,b) — per-rank edges and ghosts on %s (stand-in), p=%d",
			name, largest),
		Header: []string{"Partitioning", "min edges", "median edges", "max edges", "min ghosts", "median ghosts", "max ghosts"},
		Notes: []string{
			"paper's shape: 1D max edges ≫ delegate max edges; delegate ghosts uniform",
		},
	}
	for _, kind := range []partition.Kind{partition.OneD, partition.Delegate} {
		c, err := census(largest, kind)
		if err != nil {
			return nil, err
		}
		arcs := append([]int64(nil), c.ArcsPerRank...)
		sort.Slice(arcs, func(i, j int) bool { return arcs[i] < arcs[j] })
		ghosts := append([]int(nil), c.GhostsPerRank...)
		sort.Ints(ghosts)
		dist.AddRow(kind.String(),
			arcs[0], arcs[len(arcs)/2], arcs[len(arcs)-1],
			ghosts[0], ghosts[len(ghosts)/2], ghosts[len(ghosts)-1])
	}

	// (c)+(d): imbalance and max ghosts across processor counts.
	sweep := &Table{
		Title:  fmt.Sprintf("Figure 6(c,d) — imbalance W and max ghosts vs processors on %s (stand-in)", name),
		Header: []string{"p", "W 1d", "W delegate", "max ghosts 1d", "max ghosts delegate", "hubs"},
		Notes: []string{
			"paper's shape: 1D W grows with p, delegate W ≈ 0; delegate max ghosts shrinks with p",
		},
	}
	for _, pp := range procs {
		c1, err := census(pp, partition.OneD)
		if err != nil {
			return nil, err
		}
		cd, err := census(pp, partition.Delegate)
		if err != nil {
			return nil, err
		}
		sweep.AddRow(pp,
			fmt.Sprintf("%.3f", c1.ImbalanceW()), fmt.Sprintf("%.3f", cd.ImbalanceW()),
			c1.MaxGhosts(), cd.MaxGhosts(), cd.HubCount)
	}
	return []*Table{dist, sweep}, nil
}
