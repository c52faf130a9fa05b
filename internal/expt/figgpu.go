package expt

import (
	"fmt"

	"repro/internal/core"
)

// gpu quantifies the paper's Section VI projection: "inter-processor
// communication cost can possibly become a major performance bottleneck
// when the GPU-based clustering time can be significantly reduced." Using
// the simulated compute time and the α-β-priced communication time, it
// reports the communication share of each iteration today and under a
// hypothetical 50× compute acceleration.
func (s *Suite) gpu() ([]*Table, error) {
	name, _, err := s.fig6Graph()
	if err != nil {
		return nil, err
	}
	const accel = 50
	t := &Table{
		Title:  fmt.Sprintf("Section VI projection — communication share with GPU-accelerated clustering (%s stand-in)", name),
		Header: []string{"p", "compute (ms)", "comm (ms)", "comm share", "comm share @50x compute"},
		Notes: []string{
			"comm time = α-β model (1 µs/message, 10 GB/s) on exactly measured traffic",
			"paper §VI: communication becomes the bottleneck once local clustering is GPU-accelerated",
		},
	}
	procs := s.Profile.Procs[len(s.Profile.Procs)/2:]
	for _, pp := range procs {
		if pp < 2 {
			continue
		}
		res, err := s.solve(name, core.Options{P: pp})
		if err != nil {
			return nil, err
		}
		compute := clustering(res)
		comm := res.Stage1CommSim + res.Stage2CommSim
		share := float64(comm) / float64(comm+compute)
		gpuShare := float64(comm) / (float64(comm) + float64(compute)/accel)
		t.AddRow(pp, ms(compute), ms(comm),
			fmt.Sprintf("%.1f%%", 100*share),
			fmt.Sprintf("%.1f%%", 100*gpuShare))
	}
	return []*Table{t}, nil
}
