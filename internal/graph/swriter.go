package graph

// ShardedWriter emits a sharded graph shard-by-shard so a producer (the
// streaming R-MAT generator, a future checkpointer) never holds more than
// one shard's CSR window in memory. Payload lengths are unknown until each
// shard is encoded, so payloads are appended first and the header + index
// are written at offset 0 by Finish — the destination must be an
// io.WriterAt (a file).

import (
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
)

// ShardedWriter writes one sharded graph. Shards must be appended in
// vertex order, exactly covering [0, n) across exactly the shard count
// given to NewShardedWriter.
type ShardedWriter struct {
	w        io.WriterAt
	n        int
	shards   int
	dict     []float64
	dictIdx  map[uint64]int
	off      int64 // absolute offset of the next payload byte
	nextLo   int
	arcs     int64
	vhi      []int
	plens    []int64
	acnts    []int64
	buf      *wire.Buffer
	finished bool
}

// NewShardedWriter starts a sharded graph of n vertices and the given
// shard count, with the given weight dictionary (1..255 entries; every
// weight later appended must be in it).
func NewShardedWriter(w io.WriterAt, n, shards int, dict []float64) (*ShardedWriter, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: sharded writer: negative vertex count %d", n)
	}
	if shards < 1 {
		return nil, fmt.Errorf("graph: sharded writer: shard count %d < 1", shards)
	}
	if len(dict) < 1 || len(dict) > maxWeightDict {
		return nil, fmt.Errorf("graph: sharded writer: dictionary length %d outside [1,%d]", len(dict), maxWeightDict)
	}
	idx := make(map[uint64]int, len(dict))
	for i, v := range dict {
		if _, dup := idx[math.Float64bits(v)]; dup {
			return nil, fmt.Errorf("graph: sharded writer: duplicate dictionary weight %v", v)
		}
		idx[math.Float64bits(v)] = i
	}
	headerLen := int64(shardedHeaderLen) + 8*int64(len(dict)) + int64(shards)*shardIndexEntryLen
	return &ShardedWriter{
		w:       w,
		n:       n,
		shards:  shards,
		dict:    append([]float64(nil), dict...),
		dictIdx: idx,
		off:     headerLen,
		vhi:     make([]int, 0, shards),
		plens:   make([]int64, 0, shards),
		acnts:   make([]int64, 0, shards),
		buf:     wire.NewBuffer(1 << 16),
	}, nil
}

// AppendShard encodes and writes the next shard, covering vertices
// [prevHi, hi). offsets is the window-rebased CSR offset slice
// (len hi-prevHi+1, offsets[0] = 0); targets holds each vertex's sorted
// neighbor lists back to back. weights may be nil, meaning every arc takes
// the first dictionary weight — the unit-weight generator path, which
// skips the per-arc dictionary lookups entirely.
func (sw *ShardedWriter) AppendShard(hi int, offsets []int64, targets []int32, weights []float64) error {
	if sw.finished {
		return fmt.Errorf("graph: sharded writer: append after Finish")
	}
	lo := sw.nextLo
	if hi < lo || hi > sw.n {
		return fmt.Errorf("graph: sharded writer: shard bound %d outside [%d,%d]", hi, lo, sw.n)
	}
	if len(sw.vhi) == sw.shards {
		return fmt.Errorf("graph: sharded writer: more than %d shards appended", sw.shards)
	}
	if len(offsets) != hi-lo+1 || offsets[0] != 0 || offsets[hi-lo] != int64(len(targets)) {
		return fmt.Errorf("graph: sharded writer: shard [%d,%d): offsets (%d entries ending %d) do not describe %d arcs",
			lo, hi, len(offsets), offsets[len(offsets)-1], len(targets))
	}
	if weights != nil && len(weights) != len(targets) {
		return fmt.Errorf("graph: sharded writer: %d weights for %d targets", len(weights), len(targets))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("graph: sharded writer: offsets not monotone at vertex %d", lo+i-1)
		}
	}
	for _, w := range weights {
		if _, ok := sw.dictIdx[math.Float64bits(w)]; !ok {
			return fmt.Errorf("graph: sharded writer: weight %v not in dictionary", w)
		}
	}
	sw.buf.Reset()
	putShard(sw.buf, offsets, targets, weights, sw.dictIdx)
	if _, err := sw.w.WriteAt(sw.buf.Bytes(), sw.off); err != nil {
		return err
	}
	sw.off += int64(sw.buf.Len())
	sw.vhi = append(sw.vhi, hi)
	sw.plens = append(sw.plens, int64(sw.buf.Len()))
	sw.acnts = append(sw.acnts, int64(len(targets)))
	sw.arcs += int64(len(targets))
	sw.nextLo = hi
	return nil
}

// Arcs returns the number of arcs appended so far.
func (sw *ShardedWriter) Arcs() int64 { return sw.arcs }

// Finish validates full coverage and writes the header, dictionary, and
// index at offset 0. The writer is unusable afterwards.
func (sw *ShardedWriter) Finish() error {
	if sw.finished {
		return fmt.Errorf("graph: sharded writer: double Finish")
	}
	if sw.nextLo != sw.n || len(sw.vhi) != sw.shards {
		return fmt.Errorf("graph: sharded writer: %d shards cover %d of %d vertices (want %d shards)",
			len(sw.vhi), sw.nextLo, sw.n, sw.shards)
	}
	sw.finished = true
	_, err := sw.w.WriteAt(shardedHeader(sw.n, sw.dict, sw.vhi, sw.plens, sw.acnts), 0)
	return err
}
