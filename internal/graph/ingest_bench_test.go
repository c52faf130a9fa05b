package graph_test

// Ingest benchmarks: the edge-list reader and the sharded decoder on a
// scale-14 R-MAT input (the one the parallel ingest was first measured on,
// at commit 11a6fa5). The sharded decoder runs on up to GOMAXPROCS
// goroutines, so `go test -cpu 1,2,4,8` sweeps it; the edge-list reader is
// serial. This file is an external test package so it can use internal/gen
// without an import cycle.

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// benchGraph is the shared scale-14 R-MAT fixture (16384 vertices,
// ~260k edges); generating it once keeps per-benchmark setup cheap.
var benchGraph = sync.OnceValue(func() *graph.Graph {
	g, err := gen.RMAT(gen.Graph500RMAT(14, 5))
	if err != nil {
		panic(err)
	}
	return g
})

func benchText(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, benchGraph()); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkIngestEdgeList(b *testing.B) {
	text := benchText(b)
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadEdgeList(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestSharded(b *testing.B) {
	var sharded bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&sharded, benchGraph(), 16); err != nil {
		b.Fatal(err)
	}
	s, err := graph.OpenSharded(bytes.NewReader(sharded.Bytes()), int64(sharded.Len()))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(sharded.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAll(0); err != nil {
			b.Fatal(err)
		}
	}
}
