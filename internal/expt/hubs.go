package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// hubSlacks are the slacks ε the hubs lane sweeps through
// partition.HubThreshold.
var hubSlacks = []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}

// hubs sweeps the hub threshold on the benchmark's two batch graphs,
// Graph500 R-MAT scale 16 and LFR n = 60000 μ = 0.3 (instances 0–3 of
// seeds 1 and 2) at P ∈ {4, 16, 64} in the full profile. Per world size it
// runs the floor max(P, 4·arcs/n) alone, the threshold
// partition.HubThreshold picks at every slack ε of hubSlacks, and ∞ (1D, no
// hubs), and reports the means over the instances. Seed 1 picked the
// partitioner's ε; seed 2 is held out. Every number is a function of the
// graph and the options, so the tables are reproducible exactly. Like
// converge, it runs core directly on instances no other lane solves.
func (s *Suite) hubs() ([]*Table, error) {
	scale, lfrN, insts, seeds, procs := 10, 2000, 1, []int64{1}, []int{4, 16}
	if s.Profile.IncludeLarge {
		scale, lfrN, insts, seeds, procs = 16, 60000, 4, []int64{1, 2}, []int{4, 16, 64}
	}
	names := []string{"floor"}
	for _, eps := range hubSlacks {
		names = append(names, fmt.Sprintf("ε = %g", eps))
	}
	names = append(names, "∞ (1D)")
	var out []*Table
	for _, lfr := range []bool{false, true} {
		t := &Table{
			Title:  fmt.Sprintf("Hubs — hub threshold on R-MAT scale %d (p=%v)", scale, procs),
			Header: []string{"seed", "p", "threshold", "dhigh", "hubs", "W", "stage-1 iters", "sim (ms)", "comm (ms)", "wire (MB)", "Q"},
			Notes: []string{
				"ε rows: the largest dhigh ≥ the floor at which no rank's non-hub arcs exceed (1+ε)·arcs/p; * = the partitioner's default",
				"sim is the simulated parallel time of all stages; comm is the α-β time of their traffic; wire is the bytes sent",
				fmt.Sprintf("each cell is the mean over the first %d benchmark instance(s) of its seed", insts),
			},
		}
		if lfr {
			t.Title = fmt.Sprintf("Hubs — hub threshold on LFR n=%d μ=0.3 (p=%v)", lfrN, procs)
			t.Header = append(t.Header, "NMI")
		}
		for _, seed := range seeds {
			for _, pp := range procs {
				sums := make([]mean, len(names))
				defs := make([]int, len(names)) // instances on which row i is the partitioner's default
				for k := 0; k < insts; k++ {
					g, truth, err := benchInstance(lfr, scale, lfrN, seed, k)
					if err != nil {
						return nil, err
					}
					if err := hubRow(g, truth, pp, sums, defs); err != nil {
						return nil, err
					}
				}
				for i, m := range sums {
					n := float64(m.n)
					name, dhigh := names[i], fmt.Sprintf("%.0f", m.dhigh/n)
					if i == len(names)-1 {
						dhigh = "∞"
					} else if defs[i] == insts {
						name += " *"
					}
					row := []any{seed, pp, name, dhigh, fmt.Sprintf("%.0f", m.hubs/n),
						fmt.Sprintf("%.3f", m.w/n), fmt.Sprintf("%.1f", m.iters/n),
						fmt.Sprintf("%.1f", m.simMS/n), fmt.Sprintf("%.1f", m.commMS/n),
						fmt.Sprintf("%.2f", m.wireMB/n), fmt.Sprintf("%.5f", m.q/n)}
					if lfr {
						row = append(row, fmt.Sprintf("%.4f", m.nmi/n))
					}
					t.AddRow(row...)
				}
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// hubRow solves g at world size p under every threshold of the lane and adds
// each result to its sum, counting in defs[i] when threshold i is the
// partitioner's default: the floor, the ε rows, then 1D. Thresholds that
// delegate the same number of vertices delegate the same ones (a hub set is
// every vertex of degree ≥ dhigh), so each distinct hub set is solved once.
func hubRow(g *graph.Graph, truth graph.Membership, p int, sums []mean, defs []int) error {
	n, arcs := g.NumVertices(), g.NumArcs()
	layout, err := partition.Build(g, partition.Options{P: p})
	if err != nil {
		return err
	}
	dhighs := []int{max(p, 4*int(arcs)/n)}
	for _, eps := range hubSlacks {
		dhighs = append(dhighs, partition.HubThreshold(p, layout.Parts[0].Pi, arcs, g.Degree, eps))
	}
	solved := map[int]*core.Result{} // by hub count
	for i, d := range dhighs {
		hubs := 0
		for u := 0; u < n; u++ {
			if g.Degree(u) >= d {
				hubs++
			}
		}
		res, ok := solved[hubs]
		if !ok {
			if res, err = core.Run(g, core.Options{P: p, DHigh: d}); err != nil {
				return fmt.Errorf("dhigh %d p=%d: %w", d, p, err)
			}
			solved[hubs] = res
		}
		sums[i].dhigh += float64(d)
		if err := sums[i].add(res, truth); err != nil {
			return err
		}
		if d == layout.DHigh {
			defs[i]++
		}
	}
	res, err := core.Run(g, core.Options{P: p, Partitioning: partition.OneD})
	if err != nil {
		return fmt.Errorf("1d p=%d: %w", p, err)
	}
	return sums[len(sums)-1].add(res, truth)
}
