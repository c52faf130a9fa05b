package graph

import (
	"bytes"
	"fmt"
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

// BenchmarkShardedV2Read measures the windowed decode paths the
// out-of-core pipeline lives on, v1 against the compressed v2 format:
// whole-file decode (ReadAll) and a full sweep of per-shard windows. MB/s
// counts decoded arcs (12 bytes each: target + weight), so the v2 rows
// show the decode cost of run-coded weights at equal logical volume;
// file-B is the on-disk size, where v2 earns its keep.
func BenchmarkShardedV2Read(b *testing.B) {
	n, e := 20000, 160000
	g, err := FromEdges(n, benchEdges(n, e))
	if err != nil {
		b.Fatal(err)
	}
	const shards = 16
	var v1, v2 bytes.Buffer
	if err := writeSharded(&v1, g, shards, nil); err != nil {
		b.Fatal(err)
	}
	if err := WriteBinaryShardedV2(&v2, g, shards); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"v1", v1.Bytes()}, {"v2", v2.Bytes()}} {
		s, err := OpenSharded(bytes.NewReader(c.data), int64(len(c.data)))
		if err != nil {
			b.Fatal(err)
		}
		arcBytes := s.NumArcs() * 12
		b.Run(fmt.Sprintf("%s/all", c.name), func(b *testing.B) {
			b.SetBytes(arcBytes)
			b.ReportMetric(float64(len(c.data)), "file-B")
			for i := 0; i < b.N; i++ {
				if _, err := s.ReadAll(1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/window", c.name), func(b *testing.B) {
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
