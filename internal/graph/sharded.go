package graph

// Sharded binary graph format. The flat .bin format (ReadBinary) forces a
// reader to buffer and decode the whole file on one goroutine; the sharded
// layout prepends a fixed-width index so loaders can decode shards
// concurrently and fetch only the byte ranges covering the vertices they
// need.
//
// v1 layout (little-endian):
//
//	u32 magic 0x477250A2
//	u64 n, u64 arcs, u32 shards
//	shards × { u64 vhi, u64 payloadLen, u64 arcCount }   — the index
//	shards × payload
//
// Shard s covers vertices [vhi[s-1], vhi[s]) (vhi[-1] = 0); its v1 payload
// is the per-vertex encoding of the flat format for those vertices (uvarint
// degree, then per arc a delta-coded varint target and a fixed f64 weight),
// which is why ReadBinary decodes a flat file as one v1 shard.
// Shard boundaries are chosen to balance arcs, not vertices, so hub-heavy
// shards do not serialize the parallel decode.
//
// v2 adds weight compression for the (dominant) case of few distinct arc
// weights — unit-weight R-MAT and test graphs pay 8 of their ~9-10 bytes
// per arc for a weight that is always 1.0:
//
//	u32 magic 0x477250A3
//	u64 n, u64 arcs, u32 shards
//	u32 flags (reserved, 0), u32 dictLen (1..255)
//	dictLen × f64                                         — weight dictionary
//	shards × { u64 vhi, u64 payloadLen, u64 arcCount }    — the index
//	shards × payload
//
// A v2 per-vertex record is: uvarint degree d, then d delta-coded varint
// targets, then the d weights as (uvarint dictIndex, uvarint runLength)
// pairs whose run lengths sum to d. Writers fall back to v1 when a graph
// has more than 255 distinct weights; readers negotiate the version by
// magic, so every .sbin consumer handles both.
//
// Every index field is validated against the actual input size before any
// payload-sized allocation: Σ payloadLen must equal the bytes present, Σ
// arcCount must equal the header arc count, vhi must be monotone and end at
// n, and each shard must satisfy payloadLen ≥ (vhi−vlo) + minArcBytes ·
// arcCount (a degree byte per vertex; ≥ 9 bytes per v1 arc, ≥ 1 byte per
// v2 arc). Hostile headers therefore fail in the index check instead of
// demanding huge buffers.

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/par"
	"repro/internal/wire"
)

const (
	shardedMagic   = uint32(0x477250A2) // "GrP" + sharded, raw f64 weights
	shardedMagicV2 = uint32(0x477250A3) // "GrP" + sharded, dictionary weights
)

// shardedHeaderLen is the fixed v1 prefix: magic + n + arcs + shard count.
const shardedHeaderLen = 4 + 8 + 8 + 4

// shardedHeaderLenV2 is the fixed v2 prefix: v1 fields + flags + dictLen
// (the dictionary entries follow, before the index).
const shardedHeaderLenV2 = shardedHeaderLen + 4 + 4

// shardIndexEntryLen is one index record: vhi + payloadLen + arcCount.
const shardIndexEntryLen = 8 + 8 + 8

// maxWeightDict caps the v2 weight dictionary; writers fall back to the v1
// raw-f64 encoding beyond it.
const maxWeightDict = 255

// WriteBinaryShardedV2 writes g in the compressed sharded format: targets
// delta+varint coded as in v1, weights as runs of indexes into a per-file
// dictionary. Unit-weight graphs shrink from ~9-10 bytes/arc to ~1-2. A
// graph with more than 255 distinct weights is written as v1 (raw f64
// weights) instead — the caller gets whichever format is smaller to decode,
// negotiated by magic. Shard payloads are encoded concurrently; the byte
// output is identical at every worker count, because each shard's encoding
// depends only on its own vertices and shards are concatenated in index
// order.
func WriteBinaryShardedV2(w io.Writer, g *Graph, shards int) error {
	dict, dictIdx := weightDict(g.weights)
	if dict == nil {
		return writeSharded(w, g, shards, nil)
	}
	return writeSharded(w, g, shards, &v2Writer{dict: dict, dictIdx: dictIdx})
}

// v2Writer carries the weight dictionary of an in-flight v2 write.
type v2Writer struct {
	dict    []float64
	dictIdx map[float64]int
}

// weightDict collects the distinct values of ws in first-appearance order.
// It returns (nil, nil) when they exceed maxWeightDict, which sends the
// writer down the v1 path. An arc-free graph gets the one-entry dictionary
// {1} so dictLen ≥ 1 always holds.
func weightDict(ws []float64) ([]float64, map[float64]int) {
	dict := make([]float64, 0, 16)
	idx := make(map[float64]int, 16)
	for _, w := range ws {
		if _, ok := idx[w]; ok {
			continue
		}
		if len(dict) == maxWeightDict {
			return nil, nil
		}
		idx[w] = len(dict)
		dict = append(dict, w)
	}
	if len(dict) == 0 {
		dict = append(dict, 1)
		idx[1] = 0
	}
	return dict, idx
}

// putVertexV2 appends one vertex's v2 record: uvarint degree, delta-coded
// varint targets, then (dictIndex, runLength) weight runs. ws == nil means
// every arc takes dictionary index 0 (the streaming generator's case).
func putVertexV2(buf *wire.Buffer, ts []int32, ws []float64, dictIdx map[float64]int) {
	buf.PutUvarint(uint64(len(ts)))
	prev := int64(0)
	for _, t := range ts {
		buf.PutVarint(int64(t) - prev)
		prev = int64(t)
	}
	if len(ts) == 0 {
		return
	}
	if ws == nil {
		buf.PutUvarint(0)
		buf.PutUvarint(uint64(len(ts)))
		return
	}
	runIdx, runLen := dictIdx[ws[0]], 1
	for _, w := range ws[1:] {
		if idx := dictIdx[w]; idx != runIdx {
			buf.PutUvarint(uint64(runIdx))
			buf.PutUvarint(uint64(runLen))
			runIdx, runLen = idx, 0
		}
		runLen++
	}
	buf.PutUvarint(uint64(runIdx))
	buf.PutUvarint(uint64(runLen))
}

// shardBoundaries picks shard upper bounds that balance arcs: shard s ends
// at the first vertex whose arc offset reaches (s+1)·arcs/shards.
func shardBoundaries(offsets []int64, n int, arcs int64, shards int) []int {
	if shards < 1 {
		shards = 1
	}
	if shards > n && n > 0 {
		shards = n
	}
	vhi := make([]int, shards)
	for s := 0; s < shards-1; s++ {
		target := int64(s+1) * arcs / int64(shards)
		vhi[s] = sort.Search(n, func(v int) bool { return offsets[v] >= target })
	}
	vhi[shards-1] = n
	return vhi
}

func writeSharded(w io.Writer, g *Graph, shards int, v2 *v2Writer) error {
	n := g.NumVertices()
	arcs := g.NumArcs()
	vhi := shardBoundaries(g.offsets, n, arcs, shards)
	shards = len(vhi)

	bufs := make([]*wire.Buffer, shards)
	pool := par.NewPool(par.DefaultWorkers(1))
	defer pool.Close()
	pool.ParFor(shards, func(s, _ int) {
		lo := 0
		if s > 0 {
			lo = vhi[s-1]
		}
		hi := vhi[s]
		shardArcs := int(g.offsets[hi] - g.offsets[lo])
		if v2 != nil {
			buf := wire.NewBuffer(shardArcs*3 + (hi - lo))
			for u := lo; u < hi; u++ {
				alo, ahi := g.offsets[u], g.offsets[u+1]
				putVertexV2(buf, g.targets[alo:ahi], g.weights[alo:ahi], v2.dictIdx)
			}
			bufs[s] = buf
			return
		}
		buf := wire.NewBuffer(shardArcs*10 + (hi - lo))
		for u := lo; u < hi; u++ {
			alo, ahi := g.offsets[u], g.offsets[u+1]
			buf.PutUvarint(uint64(ahi - alo))
			prev := int64(0)
			for a := alo; a < ahi; a++ {
				t := int64(g.targets[a])
				buf.PutVarint(t - prev)
				prev = t
				buf.PutF64(g.weights[a])
			}
		}
		bufs[s] = buf
	})

	hdr := wire.NewBuffer(shardedHeaderLenV2 + shards*shardIndexEntryLen + 8*maxWeightDict)
	if v2 != nil {
		hdr.PutU32(shardedMagicV2)
	} else {
		hdr.PutU32(shardedMagic)
	}
	hdr.PutU64(uint64(n))
	hdr.PutU64(uint64(arcs))
	hdr.PutU32(uint32(shards))
	if v2 != nil {
		hdr.PutU32(0) // flags, reserved
		hdr.PutU32(uint32(len(v2.dict)))
		for _, wv := range v2.dict {
			hdr.PutF64(wv)
		}
	}
	for s := 0; s < shards; s++ {
		lo := 0
		if s > 0 {
			lo = vhi[s-1]
		}
		hdr.PutU64(uint64(vhi[s]))
		hdr.PutU64(uint64(bufs[s].Len()))
		hdr.PutU64(uint64(g.offsets[vhi[s]] - g.offsets[lo]))
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	for s := 0; s < shards; s++ {
		if _, err := w.Write(bufs[s].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Sharded is an opened sharded graph: the validated index plus the source
// reader. Payloads are fetched on demand by ReadAll / ReadWindow.
type Sharded struct {
	r          io.ReaderAt
	ver        int       // 1 = raw f64 weights, 2 = dictionary runs
	dict       []float64 // v2 weight dictionary (nil for v1)
	n          int
	arcs       int64
	vhi        []int   // shard s covers vertices [vhi[s-1], vhi[s])
	payloadOff []int64 // absolute byte offset of shard s's payload
	payloadLen []int64
	arcCount   []int64
	arcStart   []int64 // exclusive prefix sum of arcCount
}

// byteRanger is implemented by ReaderAts whose backing bytes are
// addressable in place (MappedFile); Range returns a view of [off, off+n),
// not a copy, giving shard decoders a zero-copy read path.
type byteRanger interface {
	Range(off, n int64) ([]byte, error)
}

// OpenSharded reads and validates the header and index of a sharded graph
// of the given total size, accepting both the v1 and v2 formats. No
// payload bytes are touched.
func OpenSharded(r io.ReaderAt, size int64) (*Sharded, error) {
	if size < shardedHeaderLen {
		return nil, fmt.Errorf("graph: sharded: input %d bytes, need %d for header", size, shardedHeaderLen)
	}
	hb := make([]byte, shardedHeaderLen)
	if err := readFullAt(r, hb, 0); err != nil {
		return nil, err
	}
	rd := wire.NewReader(hb)
	ver := 0
	switch m := rd.U32(); m {
	case shardedMagic:
		ver = 1
	case shardedMagicV2:
		ver = 2
	default:
		return nil, fmt.Errorf("graph: bad magic %#x (want %#x or %#x)", m, shardedMagic, shardedMagicV2)
	}
	n := int(rd.U64())
	arcs := int64(rd.U64())
	shards := int(rd.U32())
	if n < 0 || arcs < 0 || shards < 1 {
		return nil, fmt.Errorf("graph: sharded: corrupt header (n=%d arcs=%d shards=%d)", n, arcs, shards)
	}
	headerLen := int64(shardedHeaderLen)
	minArcBytes := int64(9) // varint target + f64 weight
	var dict []float64
	if ver == 2 {
		minArcBytes = 1 // varint target; weight runs amortize to < 1 byte
		if size < shardedHeaderLenV2 {
			return nil, fmt.Errorf("graph: sharded: input %d bytes, need %d for v2 header", size, shardedHeaderLenV2)
		}
		vb := make([]byte, shardedHeaderLenV2-shardedHeaderLen)
		if err := readFullAt(r, vb, shardedHeaderLen); err != nil {
			return nil, err
		}
		rd.Reset(vb)
		flags := rd.U32()
		dictLen := int(rd.U32())
		if flags != 0 {
			return nil, fmt.Errorf("graph: sharded: unsupported v2 flags %#x", flags)
		}
		if dictLen < 1 || dictLen > maxWeightDict {
			return nil, fmt.Errorf("graph: sharded: weight dictionary length %d outside [1,%d]", dictLen, maxWeightDict)
		}
		headerLen = shardedHeaderLenV2 + 8*int64(dictLen)
		if size < headerLen {
			return nil, fmt.Errorf("graph: sharded: input %d bytes, need %d for %d-entry dictionary", size, headerLen, dictLen)
		}
		db := make([]byte, 8*dictLen)
		if err := readFullAt(r, db, shardedHeaderLenV2); err != nil {
			return nil, err
		}
		rd.Reset(db)
		dict = make([]float64, dictLen)
		for i := range dict {
			dict[i] = rd.F64()
		}
	}
	indexLen := int64(shards) * shardIndexEntryLen
	payloadTotal := size - headerLen - indexLen
	if payloadTotal < 0 {
		return nil, fmt.Errorf("graph: sharded: %d shards need %d index bytes, input has %d", shards, indexLen, size-headerLen)
	}
	if int64(n) > payloadTotal || arcs > payloadTotal/minArcBytes {
		return nil, fmt.Errorf("graph: sharded: corrupt header (n=%d arcs=%d for %d payload bytes)", n, arcs, payloadTotal)
	}
	ib := make([]byte, indexLen)
	if err := readFullAt(r, ib, headerLen); err != nil {
		return nil, err
	}
	rd.Reset(ib)
	s := &Sharded{
		r:          r,
		ver:        ver,
		dict:       dict,
		n:          n,
		arcs:       arcs,
		vhi:        make([]int, shards),
		payloadOff: make([]int64, shards),
		payloadLen: make([]int64, shards),
		arcCount:   make([]int64, shards),
		arcStart:   make([]int64, shards+1),
	}
	off := headerLen + indexLen
	prevHi := 0
	var sumLen, sumArcs int64
	for i := 0; i < shards; i++ {
		hi := int(rd.U64())
		plen := int64(rd.U64())
		acnt := int64(rd.U64())
		if hi < prevHi || hi > n {
			return nil, fmt.Errorf("graph: sharded: shard %d vertex bound %d not monotone in [0,%d]", i, hi, n)
		}
		// Bounding each entry (not just the final sums) keeps a hostile
		// index from overflowing the running totals into plausible values
		// and reaching a payload-sized allocation.
		if plen < 0 || plen > payloadTotal || acnt < 0 || acnt > arcs {
			return nil, fmt.Errorf("graph: sharded: shard %d index (%d bytes, %d arcs) exceeds input (%d bytes, %d arcs)", i, plen, acnt, payloadTotal, arcs)
		}
		if plen < int64(hi-prevHi)+minArcBytes*acnt {
			return nil, fmt.Errorf("graph: sharded: shard %d index (%d vertices, %d arcs) impossible in %d bytes", i, hi-prevHi, acnt, plen)
		}
		s.vhi[i] = hi
		s.payloadOff[i] = off
		s.payloadLen[i] = plen
		s.arcCount[i] = acnt
		s.arcStart[i+1] = s.arcStart[i] + acnt
		off += plen
		prevHi = hi
		sumLen += plen
		sumArcs += acnt
	}
	if prevHi != n {
		return nil, fmt.Errorf("graph: sharded: shards cover %d of %d vertices", prevHi, n)
	}
	if sumLen != payloadTotal {
		return nil, fmt.Errorf("graph: sharded: index claims %d payload bytes, input has %d", sumLen, payloadTotal)
	}
	if sumArcs != arcs {
		return nil, fmt.Errorf("graph: sharded: arc count mismatch: header %d, index %d", arcs, sumArcs)
	}
	return s, nil
}

// NumVertices returns the vertex count recorded in the header.
func (s *Sharded) NumVertices() int { return s.n }

// NumArcs returns the arc count recorded in the header.
func (s *Sharded) NumArcs() int64 { return s.arcs }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.vhi) }

// ShardRange returns the vertex range [lo, hi) of shard i.
func (s *Sharded) ShardRange(i int) (lo, hi int) {
	if i > 0 {
		lo = s.vhi[i-1]
	}
	return lo, s.vhi[i]
}

// payloadBytes fetches shard i's payload, returning an in-place view when
// the source supports zero-copy ranging (a MappedFile) and a fresh copy
// otherwise.
func (s *Sharded) payloadBytes(i int) ([]byte, error) {
	if br, ok := s.r.(byteRanger); ok {
		return br.Range(s.payloadOff[i], s.payloadLen[i])
	}
	data := make([]byte, s.payloadLen[i])
	if err := readFullAt(s.r, data, s.payloadOff[i]); err != nil {
		return nil, err
	}
	return data, nil
}

// readFullAt fills p from r at off. io.ReaderAt may report io.EOF beside a
// complete read that ends at the end of the input — a bytes.Reader does for
// the empty payload of a vertex-free shard — so only a short read fails.
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	if n, err := r.ReadAt(p, off); n < len(p) {
		return err
	}
	return nil
}

// ReadAll decodes the whole graph, fetching and decoding shards on up to
// workers goroutines (0 = host-sized). The index pins every shard's arc
// range, so shards decode straight into the final CSR arrays — no
// per-shard intermediate graphs and no whole-file double buffer.
func (s *Sharded) ReadAll(workers int) (*Graph, error) {
	pool := par.NewPool(resolveWorkers(workers))
	defer pool.Close()
	offsets := make([]int64, s.n+1)
	targets := make([]int32, s.arcs)
	weights := make([]float64, s.arcs)
	shards := s.NumShards()
	errs := make([]error, shards)
	pool.ParFor(shards, func(i, _ int) {
		data, err := s.payloadBytes(i)
		if err != nil {
			errs[i] = err
			return
		}
		lo, hi := s.ShardRange(i)
		errs[i] = s.decodeShard(i, data, lo, hi, offsets[lo:], s.arcStart[i], targets, weights)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fromSortedCSR(offsets, targets, weights), nil
}

// decodeShard decodes shard i's payload for vertices [lo, hi) into the CSR
// arrays. offs[u-lo+1] receives the running arc cursor, which starts at
// base; targets/weights are written at the cursor's absolute positions.
func (s *Sharded) decodeShard(i int, data []byte, lo, hi int, offs []int64, base int64, targets []int32, weights []float64) error {
	rd := wire.NewReader(data)
	cur := base
	maxArc := base + s.arcCount[i]
	for u := lo; u < hi; u++ {
		d := int(rd.Uvarint())
		if err := rd.Err(); err != nil {
			return fmt.Errorf("graph: sharded: vertex %d: %v", u, err)
		}
		if d < 0 || cur+int64(d) > maxArc {
			return fmt.Errorf("graph: sharded: shard %d: degree %d at vertex %d exceeds indexed arc count %d", i, d, u, s.arcCount[i])
		}
		prev := int64(0)
		for k := 0; k < d; k++ {
			t := prev + rd.Varint()
			if t < 0 || t >= int64(s.n) || (k > 0 && t <= prev) {
				if err := rd.Err(); err != nil {
					return fmt.Errorf("graph: sharded: vertex %d: %v", u, err)
				}
				return fmt.Errorf("graph: sharded: vertex %d: target %d out of order or range [0,%d)", u, t, s.n)
			}
			prev = t
			targets[cur] = int32(t)
			if s.ver == 1 {
				weights[cur] = rd.F64()
			}
			cur++
		}
		if s.ver == 2 && d > 0 {
			if err := s.decodeWeightRuns(rd, weights[cur-int64(d):cur], u); err != nil {
				return err
			}
		}
		offs[u-lo+1] = cur
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("graph: sharded: shard %d: %v", i, err)
	}
	if cur != maxArc {
		return fmt.Errorf("graph: sharded: shard %d arc count mismatch: index %d, body %d", i, s.arcCount[i], cur-base)
	}
	if rd.Remaining() != 0 {
		return fmt.Errorf("graph: sharded: shard %d has %d trailing payload bytes", i, rd.Remaining())
	}
	return nil
}

// decodeWeightRuns fills ws from v2 (dictIndex, runLength) pairs. The run
// lengths must sum exactly to len(ws) and every index must be inside the
// dictionary; hostile run tables fail here without writing out of range.
func (s *Sharded) decodeWeightRuns(rd *wire.Reader, ws []float64, u int) error {
	for pos := 0; pos < len(ws); {
		idx := rd.Uvarint()
		runLen := rd.Uvarint()
		if err := rd.Err(); err != nil {
			return fmt.Errorf("graph: sharded: vertex %d weight runs: %v", u, err)
		}
		if idx >= uint64(len(s.dict)) {
			return fmt.Errorf("graph: sharded: vertex %d: weight index %d outside dictionary of %d", u, idx, len(s.dict))
		}
		if runLen < 1 || runLen > uint64(len(ws)-pos) {
			return fmt.Errorf("graph: sharded: vertex %d: weight run %d exceeds remaining degree %d", u, runLen, len(ws)-pos)
		}
		w := s.dict[idx]
		for k := 0; k < int(runLen); k++ {
			ws[pos] = w
			pos++
		}
	}
	return nil
}
