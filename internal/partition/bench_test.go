package partition

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func BenchmarkBuild(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(13, 3))
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{OneD, Delegate} {
		for _, p := range []int{16, 256} {
			b.Run(fmt.Sprintf("%s/p=%d", kind, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Build(g, Options{P: p, Kind: kind, DHigh: 64}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPartitionBuild is the PR-5 trajectory benchmark: delegate
// partitioning of a scale-14 R-MAT at p=16 across worker counts (accepted
// against git show 11a6fa5:scripts/bench_seed_pr5.json: >= 2x at 8
// workers, workers=1 within 10% of the then serial path).
func BenchmarkPartitionBuild(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(14, 5))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, Options{P: 16, Kind: Delegate, DHigh: 64, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionBuildStreaming prices the two window sources of the one
// emission pass on the same scale-14 R-MAT: zero-copy windows of the in-RAM
// CSR against shard windows of a v2 .sbin decoded twice (degree pass, then
// emission) — the cost of never materialising the whole Graph. Both
// partitionings; the Layouts are bit-identical (TestLayoutDigests).
func BenchmarkPartitionBuildStreaming(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(14, 5))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&buf, g, 32); err != nil {
		b.Fatal(err)
	}
	s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{Delegate, OneD} {
		b.Run(fmt.Sprintf("%s/inram", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, Options{P: 16, Kind: kind, DHigh: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/stream", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildStreaming(s, Options{P: 16, Kind: kind, DHigh: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
