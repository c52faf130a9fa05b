package gen

import (
	"fmt"
	"testing"
)

func BenchmarkRMAT(b *testing.B) {
	for _, scale := range []int{12, 16} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RMAT(Graph500RMAT(scale, int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBarabasiAlbert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BarabasiAlbert(10000, 4, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLFR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := LFR(DefaultLFR(5000, 0.3, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
