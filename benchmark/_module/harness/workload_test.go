package harness

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// All four workloads at toy sizes, untraced and traced: every path runs,
// every check passes, every listed metric is there.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	hashes := map[string]string{}
	for _, traced := range []bool{false, true} {
		for _, wl := range Workloads {
			rep, err := Run(Config{
				Workload: wl, Seed: 1, Window: 300 * time.Millisecond, Trace: traced,
				WorkDir: dir, Sizes: SmokeSizes, Smoke: true,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d: %v",
					wl, traced, rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted, rep.Failures)
			}
			defs := EndToEnd
			if traced {
				defs = PerLayer
			}
			if len(rep.Result.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(rep.Result.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Result.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", wl, traced, d.Name, m, ok, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl, d.Name, m.Value)
				}
			}
			if traced {
				if rep.Result.Metrics["trace.spans"].Value < 1 {
					t.Errorf("%s: traced run recorded no spans", wl)
				}
				data, err := os.ReadFile(rep.SpanFile)
				var spans []Span
				if err != nil || json.Unmarshal(data, &spans) != nil || len(spans) == 0 {
					t.Errorf("%s: span file %s unreadable: %v", wl, rep.SpanFile, err)
				}
				if wl != "serve-mixed" {
					if c := rep.Result.Metrics["trace.layer_coverage"].Value; c < 0.8 || c > 1.001 {
						t.Errorf("%s: layer spans cover %v of the rep", wl, c)
					}
					if rep.Result.Metrics["comm.msgs"].Value < 1 {
						t.Errorf("%s: the metered world counted no messages", wl)
					}
					// The traced run finds the untraced run's partition.
					if rep.Hash != hashes[wl] {
						t.Errorf("%s: traced membership %s, untraced %s", wl, rep.Hash, hashes[wl])
					}
				}
			} else {
				hashes[wl] = rep.Hash
			}
		}
	}
	if hashes["oocore-rmat"] != hashes["batch-rmat"] {
		t.Errorf("oocore-rmat found %s, batch-rmat %s: same file, same partition expected", hashes["oocore-rmat"], hashes["batch-rmat"])
	}
}

// A miss must be counted, reported, and make the run incorrect.
func TestCheckCountsMisses(t *testing.T) {
	r := &run{vals: newValues(), cfg: Config{Workload: "batch-lfr", WorkDir: t.TempDir()}}
	r.check(true, "fine")
	r.check(false, "rep %d went wrong", 3)
	rep, err := r.report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Correct || rep.Result.Attempted != 2 || rep.Result.Failed != 1 || len(rep.Failures) != 1 {
		t.Errorf("report %+v failures %v", rep.Result, rep.Failures)
	}
}

// benchmarkJSON mirrors the keys of ../../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json and the lists in metrics.go say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a why of 1..200", i, w.Name, len(w.Why), Workloads[i])
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) || len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, metrics.go %d + %d", len(b.EndToEnd), len(b.PerLayer), len(EndToEnd), len(PerLayer))
	}
	for i, m := range b.EndToEnd {
		d := EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, metrics.go has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		d := PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, metrics.go has %+v", i, m, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", b.RunSeconds, b.Paths)
	}
}
