package harness

import (
	"path/filepath"
	"testing"
)

func report(wl string, seed int64, pipeline, q float64) *Report {
	return &Report{Workload: wl, Seed: seed, Result: Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{
		"pipeline_s": {Value: pipeline, Unit: "s"},
		"modularity": {Value: q, Unit: "Q"},
	}}}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	set := func(scale float64, noisy bool) *RunSet {
		s := &RunSet{}
		for i, x := range steady {
			if noisy {
				x += 0.5 * float64(i%3) // spread wider than the 25% bound
			}
			s.Reports = append(s.Reports, report("batch-lfr", int64(i+1), x*scale, 0.6))
		}
		return s
	}
	verdict := func(a, b *RunSet, metric string) string {
		for _, r := range Compare(a, b) {
			if r.Workload == "batch-lfr" && r.Metric == metric {
				return r.Verdict
			}
		}
		return "missing"
	}
	base := set(1, false)
	for _, c := range []struct {
		b    *RunSet
		want string
	}{
		{set(1.02, false), Unchanged},
		{set(1.40, false), Regression},
		{set(0.60, false), Improved},
		{set(1.02, true), Unresolved}, // never "unchanged" when the runs cannot tell
	} {
		if got := verdict(base, c.b, "pipeline_s"); got != c.want {
			t.Errorf("pipeline_s verdict %s, want %s", got, c.want)
		}
	}
	if got := verdict(base, set(1.5, false), "modularity"); got != Unchanged {
		t.Errorf("modularity verdict %s, want %s", got, Unchanged)
	}
	shared, differing, _ := ExactDiffs(base, set(1, false))
	if shared != 10 || differing != 0 {
		t.Errorf("ExactDiffs = %d shared, %d differing; want 10, 0", shared, differing)
	}
}

func TestRunsFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for seed := int64(1); seed <= 3; seed++ {
		if err := AppendRun(path, report("batch-rmat", seed, 1.5, 0.07)); err != nil {
			t.Fatal(err)
		}
	}
	set, err := ReadRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Reports) != 3 || set.Machine != ThisMachine() {
		t.Fatalf("read %d reports, machine %+v", len(set.Reports), set.Machine)
	}
	if v := set.values("batch-rmat", "pipeline_s"); len(v) != 3 || v[2] != 1.5 {
		t.Errorf("values = %v", v)
	}
}
