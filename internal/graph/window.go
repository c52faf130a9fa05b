package graph

// Windowed access to a sharded graph: decode one shard's vertex range at a
// time instead of the whole file, so a consumer's peak memory is bounded by
// its own working state plus one shard window per worker. This is
// the read side of the out-of-core pipeline — the streaming partitioner and
// the -oocore cmds iterate the file through these windows and never build
// the global CSR.

import (
	"fmt"
	"io"
)

// Window is one decoded shard: the CSR slice covering vertices [Lo, Hi).
// Offsets is rebased (len Hi-Lo+1, Offsets[0] = 0).
type Window struct {
	Lo, Hi  int
	Offsets []int64
	Targets []int32
	Weights []float64
}

// Arcs returns vertex u's sorted targets and weights (u must be in
// [Lo, Hi)).
func (w *Window) Arcs(u int) ([]int32, []float64) {
	a, b := w.Offsets[u-w.Lo], w.Offsets[u-w.Lo+1]
	return w.Targets[a:b], w.Weights[a:b]
}

// Windows returns g as k arc-balanced windows (fewer when k exceeds the
// vertex count), cut by the rule the sharded writers use. Targets and
// Weights alias g's storage and must not be modified; only the rebased
// Offsets are fresh.
func (g *Graph) Windows(k int) []*Window {
	vhi := shardBoundaries(g.offsets, g.NumVertices(), g.NumArcs(), k)
	ws := make([]*Window, len(vhi))
	lo := 0
	for i, hi := range vhi {
		base, end := g.offsets[lo], g.offsets[hi]
		offs := make([]int64, hi-lo+1)
		for j := range offs {
			offs[j] = g.offsets[lo+j] - base
		}
		ws[i] = &Window{Lo: lo, Hi: hi, Offsets: offs, Targets: g.targets[base:end], Weights: g.weights[base:end]}
		lo = hi
	}
	return ws
}

// ReadWindow fetches and decodes shard i into a fresh Window. It is
// stateless and safe to call from concurrent goroutines.
func (s *Sharded) ReadWindow(i int) (*Window, error) {
	if i < 0 || i >= s.NumShards() {
		return nil, fmt.Errorf("graph: sharded: shard %d outside [0,%d)", i, s.NumShards())
	}
	data, err := s.payloadBytes(i)
	if err != nil {
		return nil, err
	}
	lo, hi := s.ShardRange(i)
	w := &Window{
		Lo:      lo,
		Hi:      hi,
		Offsets: make([]int64, hi-lo+1),
		Targets: make([]int32, s.arcCount[i]),
		Weights: make([]float64, s.arcCount[i]),
	}
	if err := s.decodeShard(i, data, lo, hi, w.Offsets, 0, w.Targets, w.Weights); err != nil {
		return nil, err
	}
	return w, nil
}

// OpenShardedFile opens path as a sharded graph backed by a read-only
// memory mapping (plain pread on platforms without mmap support), without
// decoding any payload bytes. Closing the returned closer unmaps the file;
// the Sharded must not be used after.
func OpenShardedFile(path string) (*Sharded, io.Closer, error) {
	m, err := OpenMmap(path)
	if err != nil {
		return nil, nil, err
	}
	s, err := OpenSharded(m, m.Size())
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	return s, m, nil
}
