package graph

// Windowed access to a sharded graph: decode one shard's vertex range at a
// time instead of the whole file, so a consumer's peak memory is bounded by
// its own working state plus one shard window (times a small LRU). This is
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

// Degree returns vertex u's arc count.
func (w *Window) Degree(u int) int {
	return int(w.Offsets[u-w.Lo+1] - w.Offsets[u-w.Lo])
}

// NumArcs returns the window's total arc count.
func (w *Window) NumArcs() int64 { return int64(len(w.Targets)) }

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
// stateless and safe to call from concurrent goroutines (unlike
// WindowReader, which adds a cache).
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

// WindowStats counts a WindowReader's cache traffic.
type WindowStats struct {
	Hits      int64 // window requests served from the cache
	Loads     int64 // shard fetches + decodes
	Evictions int64
	BytesRead int64 // payload bytes fetched on loads
}

// WindowReader provides random access to a sharded graph through an LRU
// cache of at most maxWindows decoded shard windows, bounding memory at
// maxWindows × the largest shard regardless of graph size. Not safe for
// concurrent use; give each goroutine its own reader (the underlying
// Sharded is shared safely).
type WindowReader struct {
	s     *Sharded
	max   int
	cache map[int]*windowEntry
	tick  int64
	stats WindowStats
}

type windowEntry struct {
	w    *Window
	last int64
}

// NewWindowReader wraps s with an LRU of up to maxWindows decoded windows
// (minimum 1).
func NewWindowReader(s *Sharded, maxWindows int) *WindowReader {
	if maxWindows < 1 {
		maxWindows = 1
	}
	return &WindowReader{
		s:     s,
		max:   maxWindows,
		cache: make(map[int]*windowEntry, maxWindows+1),
	}
}

// Sharded returns the underlying opened graph.
func (r *WindowReader) Sharded() *Sharded { return r.s }

// Stats returns the cache counters accumulated so far.
func (r *WindowReader) Stats() WindowStats { return r.stats }

// Window returns shard i's decoded window, from the cache when resident.
// The window is valid until evicted plus however long the caller holds it;
// it is never mutated by the reader.
func (r *WindowReader) Window(i int) (*Window, error) {
	r.tick++
	if e, ok := r.cache[i]; ok {
		e.last = r.tick
		r.stats.Hits++
		return e.w, nil
	}
	w, err := r.s.ReadWindow(i)
	if err != nil {
		return nil, err
	}
	r.stats.Loads++
	r.stats.BytesRead += r.s.payloadLen[i]
	if len(r.cache) >= r.max {
		// The cache is small (a handful of windows), so a linear scan for
		// the oldest entry beats maintaining a heap or list.
		oldest, oldestTick := -1, r.tick+1
		for k, e := range r.cache {
			if e.last < oldestTick {
				oldest, oldestTick = k, e.last
			}
		}
		delete(r.cache, oldest)
		r.stats.Evictions++
	}
	r.cache[i] = &windowEntry{w: w, last: r.tick}
	return w, nil
}

// NeighborsOf returns vertex u's sorted targets and weights through the
// window cache. The slices alias the cached window: copy before the next
// Window/NeighborsOf call if they must outlive it.
func (r *WindowReader) NeighborsOf(u int) ([]int32, []float64, error) {
	if u < 0 || u >= r.s.n {
		return nil, nil, fmt.Errorf("graph: sharded: vertex %d outside [0,%d)", u, r.s.n)
	}
	w, err := r.Window(r.s.ShardOf(u))
	if err != nil {
		return nil, nil, err
	}
	ts, ws := w.Arcs(u)
	return ts, ws, nil
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
