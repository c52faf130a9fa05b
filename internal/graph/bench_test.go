package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

func benchEdges(n, e int) []Edge {
	rng := rand.New(rand.NewSource(1))
	edges := make([]Edge, e)
	for i := range edges {
		edges[i] = Edge{U: rng.Intn(n), V: rng.Intn(n), W: 1}
	}
	return edges
}

func BenchmarkFromEdges(b *testing.B) {
	n, e := 10000, 80000
	edges := benchEdges(n, e)
	b.SetBytes(int64(e * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(n, edges); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModularity(b *testing.B) {
	n, e := 10000, 80000
	g, err := FromEdges(n, benchEdges(n, e))
	if err != nil {
		b.Fatal(err)
	}
	m := make(Membership, n)
	for i := range m {
		m[i] = i % 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Modularity(g, m)
	}
}

// BenchmarkShardedV2Read measures the decode paths the out-of-core
// pipeline lives on: whole-file decode (ReadAll) and a full sweep of
// per-shard windows. MB/s counts decoded arcs (12 bytes each: target +
// weight); file-B is the on-disk size.
func BenchmarkShardedV2Read(b *testing.B) {
	n, e := 20000, 160000
	g, err := FromEdges(n, benchEdges(n, e))
	if err != nil {
		b.Fatal(err)
	}
	data := encodeSharded(b, g, 16)
	s, err := OpenSharded(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	arcBytes := s.NumArcs() * 12
	b.Run("all", func(b *testing.B) {
		b.SetBytes(arcBytes)
		b.ReportMetric(float64(len(data)), "file-B")
		for i := 0; i < b.N; i++ {
			if _, err := s.ReadAll(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("window", func(b *testing.B) {
		b.SetBytes(arcBytes)
		for i := 0; i < b.N; i++ {
			for sh := 0; sh < s.NumShards(); sh++ {
				if _, err := s.ReadWindow(sh); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkNeighborIteration(b *testing.B) {
	n, e := 10000, 80000
	g, err := FromEdges(n, benchEdges(n, e))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for u := 0; u < g.NumVertices(); u++ {
			_, ws := g.Neighbors(u)
			for _, w := range ws {
				sum += w
			}
		}
		if sum <= 0 {
			b.Fatal("bad sum")
		}
	}
}
