package louvain

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

func BenchmarkSequential(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("lfr-n=%d", n), func(b *testing.B) {
			g, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 5))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(g, Options{})
			}
		})
	}
}

func BenchmarkAggregate(b *testing.B) {
	g, _, err := gen.LFR(gen.DefaultLFR(8000, 0.3, 5))
	if err != nil {
		b.Fatal(err)
	}
	labels, _, _ := localMoving(g, Options{Resolution: 1})
	k := labels.Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Aggregate(g, labels, k)
	}
}
