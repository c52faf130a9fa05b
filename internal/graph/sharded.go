package graph

// Sharded binary graph format (.sbin). A fixed-width index lets loaders
// decode shards concurrently and fetch only the byte ranges covering the
// vertices they need. The layout (little-endian):
//
//	u32 magic 0x477250A3
//	u64 n, u64 arcs, u32 shards
//	u32 flags (reserved, 0), u32 dictLen (1..255)
//	dictLen × f64                                         — weight dictionary
//	shards × { u64 vhi, u64 payloadLen, u64 arcCount }    — the index
//	shards × payload
//
// Shard s covers vertices [vhi[s-1], vhi[s]) (vhi[-1] = 0). Its payload is
// one record per vertex: uvarint degree d, then d delta-coded varint
// targets, then the d weights as (uvarint dictIndex, uvarint runLength)
// pairs whose run lengths sum to d. Shard boundaries are chosen to balance
// arcs, not vertices, so hub-heavy shards do not serialize the parallel
// decode. Unit-weight graphs cost ~1-2 bytes per arc. The dictionary holds
// at most 255 weights, which keeps an out-of-core reader's dictionary O(1);
// a graph with more distinct weights cannot be written.
//
// Every index field is validated against the actual input size before any
// payload-sized allocation: Σ payloadLen must equal the bytes present, Σ
// arcCount must equal the header arc count, vhi must be monotone and end at
// n, and each shard must satisfy payloadLen ≥ (vhi−vlo) + arcCount (a
// degree byte per vertex, a target byte per arc). Hostile headers therefore
// fail in the index check instead of demanding huge buffers.

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/par"
	"repro/internal/wire"
)

const shardedMagicV2 = uint32(0x477250A3) // "GrP" + sharded, format version 2

// shardedHeaderLen is the fixed prefix: magic + n + arcs + shard count +
// flags + dictLen (the dictionary entries follow, before the index).
const shardedHeaderLen = 4 + 8 + 8 + 4 + 4 + 4

// shardIndexEntryLen is one index record: vhi + payloadLen + arcCount.
const shardIndexEntryLen = 8 + 8 + 8

// maxWeightDict caps the weight dictionary.
const maxWeightDict = 255

// WriteBinaryShardedV2 writes g in the sharded format: targets delta+varint
// coded, weights as runs of indexes into a per-file dictionary. A graph
// with more than 255 distinct weights is refused before any byte is
// written. Shard payloads are encoded concurrently; the byte output is
// identical at every GOMAXPROCS, because each shard's encoding depends only
// on its own vertices and shards are concatenated in index order.
func WriteBinaryShardedV2(w io.Writer, g *Graph, shards int) error {
	dict, dictIdx, err := weightDict(g.weights)
	if err != nil {
		return err
	}
	vhi := shardBoundaries(g.offsets, g.NumVertices(), g.NumArcs(), shards)
	bufs := make([]*wire.Buffer, len(vhi))
	plens := make([]int64, len(vhi))
	acnts := make([]int64, len(vhi))
	par.For(len(vhi), func(s int) {
		lo := 0
		if s > 0 {
			lo = vhi[s-1]
		}
		offs := g.offsets[lo : vhi[s]+1]
		arcs := offs[len(offs)-1] - offs[0]
		buf := wire.NewBuffer(int(arcs)*3 + len(offs))
		putShard(buf, offs, g.targets, g.weights, dictIdx)
		bufs[s], plens[s], acnts[s] = buf, int64(buf.Len()), arcs
	})
	if _, err := w.Write(shardedHeader(g.NumVertices(), dict, vhi, plens, acnts)); err != nil {
		return err
	}
	for _, buf := range bufs {
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// weightDict collects the distinct values of ws in first-appearance order,
// keyed by bit pattern so a NaN finds itself. More than maxWeightDict of
// them is an error. An arc-free graph gets the one-entry dictionary {1} so
// dictLen ≥ 1 always holds.
func weightDict(ws []float64) ([]float64, map[uint64]int, error) {
	dict := make([]float64, 0, 16)
	idx := make(map[uint64]int, 16)
	for _, w := range ws {
		b := math.Float64bits(w)
		if _, ok := idx[b]; ok {
			continue
		}
		if len(dict) == maxWeightDict {
			return nil, nil, fmt.Errorf("graph: sharded: more than %d distinct weights", maxWeightDict)
		}
		idx[b] = len(dict)
		dict = append(dict, w)
	}
	if len(dict) == 0 {
		dict = append(dict, 1)
		idx[math.Float64bits(1)] = 0
	}
	return dict, idx, nil
}

// shardedHeader builds every byte before the first payload: the fixed
// header, the weight dictionary and the index of the shards ending at vhi
// with payload lengths plens and arc counts acnts.
func shardedHeader(n int, dict []float64, vhi []int, plens, acnts []int64) []byte {
	var arcs int64
	for _, a := range acnts {
		arcs += a
	}
	hdr := wire.NewBuffer(shardedHeaderLen + 8*len(dict) + len(vhi)*shardIndexEntryLen)
	hdr.PutU32(shardedMagicV2)
	hdr.PutU64(uint64(n))
	hdr.PutU64(uint64(arcs))
	hdr.PutU32(uint32(len(vhi)))
	hdr.PutU32(0) // flags, reserved
	hdr.PutU32(uint32(len(dict)))
	for _, w := range dict {
		hdr.PutF64(w)
	}
	for s := range vhi {
		hdr.PutU64(uint64(vhi[s]))
		hdr.PutU64(uint64(plens[s]))
		hdr.PutU64(uint64(acnts[s]))
	}
	return hdr.Bytes()
}

// putShard appends one shard's payload: for the i-th of len(offs)-1
// vertices, whose arcs are targets[offs[i]:offs[i+1]], a uvarint degree,
// the delta-coded varint targets, then (dictIndex, runLength) weight runs.
// weights == nil means every arc takes dictionary index 0 (the streaming
// generator's case).
func putShard(buf *wire.Buffer, offs []int64, targets []int32, weights []float64, dictIdx map[uint64]int) {
	for i := 0; i+1 < len(offs); i++ {
		ts := targets[offs[i]:offs[i+1]]
		buf.PutUvarint(uint64(len(ts)))
		prev := int64(0)
		for _, t := range ts {
			buf.PutVarint(int64(t) - prev)
			prev = int64(t)
		}
		if len(ts) == 0 {
			continue
		}
		if weights == nil {
			buf.PutUvarint(0)
			buf.PutUvarint(uint64(len(ts)))
			continue
		}
		ws := weights[offs[i]:offs[i+1]]
		runIdx, runLen := dictIdx[math.Float64bits(ws[0])], 1
		for _, w := range ws[1:] {
			if idx := dictIdx[math.Float64bits(w)]; idx != runIdx {
				buf.PutUvarint(uint64(runIdx))
				buf.PutUvarint(uint64(runLen))
				runIdx, runLen = idx, 0
			}
			runLen++
		}
		buf.PutUvarint(uint64(runIdx))
		buf.PutUvarint(uint64(runLen))
	}
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

// Sharded is an opened sharded graph: the validated index plus the source
// reader. Payloads are fetched on demand by ReadAll / ReadWindow, each
// shard with one positioned read into a fresh buffer.
type Sharded struct {
	r          io.ReaderAt
	dict       []float64 // weight dictionary
	n          int
	arcs       int64
	vhi        []int   // shard s covers vertices [vhi[s-1], vhi[s])
	payloadOff []int64 // absolute byte offset of shard s's payload
	payloadLen []int64
	arcCount   []int64
	arcStart   []int64 // exclusive prefix sum of arcCount
}

// OpenSharded reads and validates the header, dictionary and index of a
// sharded graph of the given total size. No payload bytes are touched.
func OpenSharded(r io.ReaderAt, size int64) (*Sharded, error) {
	if size < shardedHeaderLen {
		return nil, fmt.Errorf("graph: sharded: input %d bytes, need %d for header", size, shardedHeaderLen)
	}
	hb := make([]byte, shardedHeaderLen)
	if err := readFullAt(r, hb, 0); err != nil {
		return nil, err
	}
	rd := wire.NewReader(hb)
	if m := rd.U32(); m != shardedMagicV2 {
		return nil, fmt.Errorf("graph: bad magic %#x (want %#x)", m, shardedMagicV2)
	}
	n := int(rd.U64())
	arcs := int64(rd.U64())
	shards := int(rd.U32())
	flags := rd.U32()
	dictLen := int(rd.U32())
	if n < 0 || arcs < 0 || shards < 1 {
		return nil, fmt.Errorf("graph: sharded: corrupt header (n=%d arcs=%d shards=%d)", n, arcs, shards)
	}
	if flags != 0 {
		return nil, fmt.Errorf("graph: sharded: unsupported flags %#x", flags)
	}
	if dictLen < 1 || dictLen > maxWeightDict {
		return nil, fmt.Errorf("graph: sharded: weight dictionary length %d outside [1,%d]", dictLen, maxWeightDict)
	}
	headerLen := shardedHeaderLen + 8*int64(dictLen)
	if size < headerLen {
		return nil, fmt.Errorf("graph: sharded: input %d bytes, need %d for %d-entry dictionary", size, headerLen, dictLen)
	}
	db := make([]byte, 8*dictLen)
	if err := readFullAt(r, db, shardedHeaderLen); err != nil {
		return nil, err
	}
	rd.Reset(db)
	dict := make([]float64, dictLen)
	for i := range dict {
		dict[i] = rd.F64()
	}
	indexLen := int64(shards) * shardIndexEntryLen
	payloadTotal := size - headerLen - indexLen
	if payloadTotal < 0 {
		return nil, fmt.Errorf("graph: sharded: %d shards need %d index bytes, input has %d", shards, indexLen, size-headerLen)
	}
	if int64(n) > payloadTotal || arcs > payloadTotal {
		return nil, fmt.Errorf("graph: sharded: corrupt header (n=%d arcs=%d for %d payload bytes)", n, arcs, payloadTotal)
	}
	ib := make([]byte, indexLen)
	if err := readFullAt(r, ib, headerLen); err != nil {
		return nil, err
	}
	rd.Reset(ib)
	s := &Sharded{
		r:          r,
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
		if plen < int64(hi-prevHi)+acnt {
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

// payloadBytes reads shard i's payload into a fresh buffer. A short read —
// the file truncated after the index was validated — fails with an error
// naming the shard and wrapping io.ErrUnexpectedEOF.
func (s *Sharded) payloadBytes(i int) ([]byte, error) {
	data := make([]byte, s.payloadLen[i])
	if err := readFullAt(s.r, data, s.payloadOff[i]); err != nil {
		return nil, fmt.Errorf("graph: sharded: shard %d payload: %w", i, err)
	}
	return data, nil
}

// readFullAt fills p from r at off. io.ReaderAt may report io.EOF beside a
// complete read that ends at the end of the input — a bytes.Reader does for
// the empty payload of a vertex-free shard — so only a short read fails,
// and a short read at the end of the input is io.ErrUnexpectedEOF.
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	if n, err := r.ReadAt(p, off); n < len(p) {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// ReadAll decodes the whole graph, fetching and decoding shards on up to
// GOMAXPROCS goroutines. The argument is ignored; it is kept so existing
// callers still compile. The index pins every shard's arc
// range, so shards decode straight into the final CSR arrays — no
// per-shard intermediate graphs and no whole-file double buffer.
func (s *Sharded) ReadAll(int) (*Graph, error) {
	offsets := make([]int64, s.n+1)
	targets := make([]int32, s.arcs)
	weights := make([]float64, s.arcs)
	shards := s.NumShards()
	errs := make([]error, shards)
	par.For(shards, func(i int) {
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
			cur++
		}
		if d > 0 {
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

// decodeWeightRuns fills ws from (dictIndex, runLength) pairs. The run
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
