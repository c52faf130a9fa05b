package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/louvain"
)

// fig9Run holds one dataset's scaling sweep, shared with Figure 10.
type fig9Run struct {
	name    string
	procs   []int
	times   []time.Duration // total clustering time per processor count
	seqTime time.Duration
}

var fig9Cache = map[string][]fig9Run{}

// fig9Sweep measures every dataset across the profile's processor sweep.
// Results are memoized so Figures 9 and 10 share one sweep.
func fig9Sweep(p Profile) ([]fig9Run, error) {
	key := fmt.Sprint(p)
	if runs, ok := fig9Cache[key]; ok {
		return runs, nil
	}
	var runs []fig9Run
	for _, d := range p.datasets() {
		g, _, err := d.Load()
		if err != nil {
			return nil, err
		}
		run := fig9Run{name: d.Name, procs: p.Procs}
		t0 := time.Now()
		louvain.Run(g, louvain.Options{})
		run.seqTime = time.Since(t0)
		for _, pp := range p.Procs {
			res, err := core.Run(g, core.Options{P: pp})
			if err != nil {
				return nil, fmt.Errorf("%s p=%d: %w", d.Name, pp, err)
			}
			run.times = append(run.times, res.Stage1Sim+res.Stage2Sim)
		}
		runs = append(runs, run)
	}
	fig9Cache[key] = runs
	return runs, nil
}

// Fig9 reproduces Figure 9: total clustering time (stage 1 + stage 2) per
// dataset across processor counts, with the sequential time for reference.
func Fig9(p Profile) (*Table, error) {
	runs, err := fig9Sweep(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 9 — strong scaling of total clustering time",
		Header: []string{"Dataset", "sequential (ms)"},
		Notes: []string{
			"times are simulated parallel clustering times: per-iteration max across ranks of per-rank busy time (the host serializes ranks on its cores; see EXPERIMENTS.md)",
			"partition (preprocessing) time is negligible and not tabled; dlouvain prints it per run on its times: line",
		},
	}
	for _, pp := range p.Procs {
		t.Header = append(t.Header, fmt.Sprintf("p=%d (ms)", pp))
	}
	for _, r := range runs {
		row := []any{r.name, ms(r.seqTime)}
		for _, d := range r.times {
			row = append(row, ms(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig10 reproduces Figure 10: relative parallel efficiency
// τ = p₁T(p₁) / (p₂T(p₂)) with p₁ the smallest processor count of the
// sweep.
func Fig10(p Profile) (*Table, error) {
	runs, err := fig9Sweep(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 10 — relative parallel efficiency τ",
		Header: []string{"Dataset"},
		Notes: []string{
			"paper's shape: mostly above 0.65; can exceed 1 when more ranks converge in fewer iterations",
		},
	}
	for _, pp := range p.Procs[1:] {
		t.Header = append(t.Header, fmt.Sprintf("τ(p=%d)", pp))
	}
	for _, r := range runs {
		row := []any{r.name}
		base := float64(r.procs[0]) * float64(r.times[0])
		for i := 1; i < len(r.procs); i++ {
			tau := base / (float64(r.procs[i]) * float64(r.times[i]))
			row = append(row, fmt.Sprintf("%.2f", tau))
		}
		t.AddRow(row...)
	}
	return t, nil
}
