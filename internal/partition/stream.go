package partition

// BuildStreaming feeds the emission pass (build, partition.go) from a
// sharded graph file instead of an in-RAM Graph, so the global CSR is never
// materialized.
//
// A file, unlike a Graph, does not carry per-vertex degrees or 2m, and the
// hub directory must be known before the first arc is placed. Pass A
// therefore scans the shard windows once to collect degrees and weighted
// degrees (O(n) state, not O(arcs)); the emission pass then re-reads the
// windows. Per-vertex sums accumulate in arc order and 2m accumulates the
// per-vertex sums in vertex order, matching the CSR builder's finish pass
// bit for bit.
//
// Peak memory is the O(n) degree arrays plus the emitted Layout plus one
// decoded shard window per worker — flat in total |E| for a fixed layout
// size per rank, which is the point: generate → partition → solve never
// needs the arcs in one block.

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// BuildStreaming partitions an opened sharded graph across opt.P ranks by
// scanning its shard windows twice, without decoding the whole file at
// once. The Layout is bit-identical to Build of the same graph with the
// same Options.
func BuildStreaming(s *graph.Sharded, opt Options) (*Layout, error) {
	n := s.NumVertices()
	nShards := s.NumShards()

	// Pass A. Shards cover disjoint ascending vertex ranges, so one shard
	// per chunk writes disjoint slices of the arrays.
	deg := make([]int32, n)
	wdeg := make([]float64, n)
	errs := make([]error, nShards)
	pool := par.NewPool(opt.workers())
	pool.ParFor(nShards, func(i, _ int) {
		w, err := s.ReadWindow(i)
		if err != nil {
			errs[i] = err
			return
		}
		for u := w.Lo; u < w.Hi; u++ {
			_, ws := w.Arcs(u)
			deg[u] = int32(len(ws))
			k := 0.0
			for _, x := range ws {
				k += x
			}
			wdeg[u] = k
		}
	})
	pool.Close()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	m2 := 0.0
	for u := 0; u < n; u++ {
		m2 += wdeg[u]
	}

	return build(n, nShards, s.ReadWindow,
		func(u int) int { return int(deg[u]) },
		func(u int) float64 { return wdeg[u] }, m2, opt)
}
