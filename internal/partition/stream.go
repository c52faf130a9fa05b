package partition

// BuildStreaming feeds the emission pass (build, partition.go) from a
// sharded graph file instead of an in-RAM Graph, so the global CSR is never
// materialized.
//
// A file, unlike a Graph, does not carry per-vertex degrees, and the hub
// directory must be known before the first arc is placed. Pass A therefore
// scans the shard windows once to collect degrees (O(n) state, not
// O(arcs)); the emission pass then re-reads the windows and quantises the
// weights exactly as Build does.
//
// Peak memory is the O(n) degree array plus the emitted Layout plus one
// decoded shard window per goroutine — flat in total |E| for a fixed layout
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
	// per chunk writes a disjoint slice of the array.
	deg := make([]int32, n)
	errs := make([]error, nShards)
	par.For(nShards, func(i int) {
		w, err := s.ReadWindow(i)
		if err != nil {
			errs[i] = err
			return
		}
		for u := w.Lo; u < w.Hi; u++ {
			deg[u] = int32(w.Offsets[u-w.Lo+1] - w.Offsets[u-w.Lo])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	return build(n, s.NumArcs(), nShards, s.ReadWindow, func(u int) int { return int(deg[u]) }, opt)
}
