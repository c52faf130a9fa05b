package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Ablation benchmarks for the design choices called out in DESIGN.md §5.
// They report quality and convergence metrics alongside time, via
// b.ReportMetric.

func ablationGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, _, err := gen.LFR(gen.DefaultLFR(4000, 0.25, 55))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAblationDHigh sweeps the hub threshold: small thresholds
// delegate too much (hub decisions become partial-information guesses),
// huge thresholds degenerate to 1D behaviour.
func BenchmarkAblationDHigh(b *testing.B) {
	g := ablationGraph(b)
	for _, dhigh := range []int{8, 16, 32, 64, 1 << 20} {
		name := fmt.Sprintf("dhigh=%d", dhigh)
		if dhigh == 1<<20 {
			name = "dhigh=inf"
		}
		b.Run(name, func(b *testing.B) {
			var lastQ float64
			var hubs int
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, core.Options{P: 8, DHigh: dhigh})
				if err != nil {
					b.Fatal(err)
				}
				lastQ = res.Modularity
				hubs = res.HubCount
			}
			b.ReportMetric(lastQ, "modularity")
			b.ReportMetric(float64(hubs), "hubs")
		})
	}
}

// BenchmarkAblationHeuristic compares the two convergence heuristics (the
// Figure 5 knob): enhanced should dominate on quality, simple should churn.
func BenchmarkAblationHeuristic(b *testing.B) {
	g := ablationGraph(b)
	for _, h := range []core.Heuristic{core.HeuristicEnhanced, core.HeuristicSimple} {
		b.Run(h.String(), func(b *testing.B) {
			var lastQ float64
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, core.Options{P: 8, Heuristic: h, MaxInnerIters: 40})
				if err != nil {
					b.Fatal(err)
				}
				lastQ = res.Modularity
				iters = res.Stage1Iters
			}
			b.ReportMetric(lastQ, "modularity")
			b.ReportMetric(float64(iters), "stage1iters")
		})
	}
}

// BenchmarkAblationPartitioning isolates the partitioning choice at fixed
// heuristic: the paper's Figure 7 comparison as a benchmark.
func BenchmarkAblationPartitioning(b *testing.B) {
	g := ablationGraph(b)
	for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
		b.Run(kind.String(), func(b *testing.B) {
			var imbalance float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, core.Options{P: 8, Partitioning: kind})
				if err != nil {
					b.Fatal(err)
				}
				imbalance = res.Census.ImbalanceW()
			}
			b.ReportMetric(imbalance, "W")
		})
	}
}

// BenchmarkAblationCommVolume reports the communication volume of a run —
// the paper's Section V-C concern — at several world sizes.
func BenchmarkAblationCommVolume(b *testing.B) {
	g := ablationGraph(b)
	for _, p := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var total, maxRank float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, core.Options{P: p})
				if err != nil {
					b.Fatal(err)
				}
				total = float64(res.CommStats.TotalBytesSent())
				maxRank = float64(res.CommStats.MaxBytesSent())
			}
			b.ReportMetric(total, "bytes-total")
			b.ReportMetric(maxRank, "bytes-maxrank")
			// Balance ratio: max-rank share vs perfect balance.
			b.ReportMetric(maxRank*float64(p)/total, "comm-imbalance")
		})
	}
}

// BenchmarkPartitionBuild measures partitioning preprocessing alone (the
// paper reports it as negligible in Figure 9).
func BenchmarkPartitionBuild(b *testing.B) {
	g := ablationGraph(b)
	for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.Build(g, partition.Options{P: 16, Kind: kind}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
