package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/louvain"
)

// sweep returns a dataset's simulated clustering time at every processor
// count of the profile: the data of Figures 9 and 10.
func (s *Suite) sweep(name string) ([]time.Duration, error) {
	var times []time.Duration
	for _, pp := range s.Profile.Procs {
		res, err := s.solve(name, core.Options{P: pp})
		if err != nil {
			return nil, err
		}
		times = append(times, clustering(res))
	}
	return times, nil
}

// fig9 reproduces Figure 9: total clustering time (stage 1 + stage 2) per
// dataset across processor counts, with the sequential time for reference.
func (s *Suite) fig9() ([]*Table, error) {
	t := &Table{
		Title:  "Figure 9 — strong scaling of total clustering time",
		Header: []string{"Dataset", "sequential (ms)"},
		Notes: []string{
			"times are simulated parallel clustering times: per-iteration max across ranks of per-rank busy time (the host serializes ranks on its cores; see EXPERIMENTS.md)",
			"partition (preprocessing) time is negligible and not tabled; dlouvain prints it per run on its times: line",
		},
	}
	for _, pp := range s.Profile.Procs {
		t.Header = append(t.Header, fmt.Sprintf("p=%d (ms)", pp))
	}
	for _, d := range s.Profile.datasets() {
		g, _, err := s.load(d.Name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		louvain.Run(g, louvain.Options{})
		row := []any{d.Name, ms(time.Since(t0))}
		times, err := s.sweep(d.Name)
		if err != nil {
			return nil, err
		}
		for _, tm := range times {
			row = append(row, ms(tm))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// fig10 reproduces Figure 10: relative parallel efficiency
// τ = p₁T(p₁) / (p₂T(p₂)) with p₁ the smallest processor count of the
// sweep.
func (s *Suite) fig10() ([]*Table, error) {
	t := &Table{
		Title:  "Figure 10 — relative parallel efficiency τ",
		Header: []string{"Dataset"},
		Notes: []string{
			"paper's shape: mostly above 0.65; can exceed 1 when more ranks converge in fewer iterations",
		},
	}
	procs := s.Profile.Procs
	for _, pp := range procs[1:] {
		t.Header = append(t.Header, fmt.Sprintf("τ(p=%d)", pp))
	}
	for _, d := range s.Profile.datasets() {
		times, err := s.sweep(d.Name)
		if err != nil {
			return nil, err
		}
		row := []any{d.Name}
		base := float64(procs[0]) * float64(times[0])
		for i := 1; i < len(procs); i++ {
			tau := base / (float64(procs[i]) * float64(times[i]))
			row = append(row, fmt.Sprintf("%.2f", tau))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}
