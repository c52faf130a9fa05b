package repro_test

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/louvain"
)

// One benchmark per table and figure of the paper's evaluation. Each runs
// the corresponding experiment at the quick profile; `cmd/experiments`
// (without -quick) runs the full profile and prints the tables.

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	p := expt.Quick()
	for i := 0; i < b.N; i++ {
		if err := expt.Run(name, p, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Datasets regenerates Table I (dataset census).
func BenchmarkTable1Datasets(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig5Convergence regenerates Figure 5 (modularity convergence:
// sequential vs parallel simple vs parallel enhanced).
func BenchmarkFig5Convergence(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkTable2Quality regenerates Table II (NMI, F-measure, NVD, RI,
// ARI, JI against ground truth).
func BenchmarkTable2Quality(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig6Partition regenerates Figure 6 (workload and communication
// balance of 1D vs delegate partitioning).
func BenchmarkFig6Partition(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7DelegateVs1D regenerates Figure 7 (total running time vs the
// 1D-partitioned baseline).
func BenchmarkFig7DelegateVs1D(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Breakdown regenerates Figure 8 (stage times and the
// per-iteration phase breakdown).
func BenchmarkFig8Breakdown(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9Scaling regenerates Figure 9 (strong scaling over the
// dataset registry).
func BenchmarkFig9Scaling(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Efficiency regenerates Figure 10 (relative parallel
// efficiency τ).
func BenchmarkFig10Efficiency(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11StrongWeak regenerates Figure 11 (strong and weak scaling
// on R-MAT and BA graphs).
func BenchmarkFig11StrongWeak(b *testing.B) { benchExperiment(b, "fig11") }

// Micro-benchmarks of the core pipeline, for profiling rather than paper
// reproduction.

// BenchmarkSequentialLouvain measures the sequential baseline on the
// Amazon stand-in.
func BenchmarkSequentialLouvain(b *testing.B) {
	g, _, err := gen.LFR(gen.DefaultLFR(6000, 0.25, 101))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := louvain.Run(g, louvain.Options{})
		if res.Modularity <= 0 {
			b.Fatal("bad modularity")
		}
	}
}

// BenchmarkDistributedLouvain measures the full distributed pipeline at
// several world sizes on the Amazon stand-in.
func BenchmarkDistributedLouvain(b *testing.B) {
	g, _, err := gen.LFR(gen.DefaultLFR(6000, 0.25, 101))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "p=1", 2: "p=2", 4: "p=4", 8: "p=8"}[p], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, core.Options{P: p})
				if err != nil {
					b.Fatal(err)
				}
				if res.Modularity <= 0 {
					b.Fatal("bad modularity")
				}
			}
		})
	}
}

// BenchmarkCommCost regenerates the Section V-C communication-volume study
// (measured bytes per rank, delegate vs 1D).
func BenchmarkCommCost(b *testing.B) { benchExperiment(b, "comm") }

// BenchmarkGPUProjection regenerates the Section VI projection (simulated
// communication share under GPU-accelerated local clustering).
func BenchmarkGPUProjection(b *testing.B) { benchExperiment(b, "gpu") }
