package core

import (
	"fmt"
	"math/bits"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/wire"
)

// This file implements the paper's distributed graph merging (Algorithm 3)
// as a zero-map, pool-parallel pipeline: communities become the vertices of
// a coarser graph, arcs are translated to dense community IDs, combined
// locally, and shipped to the new owners (1D partitioning by new-ID mod P),
// and each rank assembles its portion of the merged graph with the same
// histogram → offsets → stable-scatter counting sort the ingest CSR builder
// uses (graph.FromEdges). Three properties are load-bearing:
//
//   - Pre-aggregation: duplicate (cu, cv) arc pairs are grouped per
//     destination before they hit the wire — each frame carries every
//     distinct cu once and every distinct cv once, delta-coded — so the
//     topology bytes shrink by the local duplication factor. The weights
//     themselves are not summed on the send side: each individual weight
//     ships inside its group as a fixed-point varint, in first-encounter
//     order (the two stable counting passes preserve the translate order
//     within each pair), and the receiver sums them. The sums are exact
//     integers, so the coarse graph is byte-identical to the seed's.
//
//   - No maps: the seed's denseOf / adj / ghost / subscriber maps are
//     replaced by a strided owned-community table, flat record arrays, and
//     per-row bitmasks, all pooled in a mergeScratch that the session
//     threads through successive merge levels, so steady-state levels
//     reuse their storage.
//
//   - The collective schedule (one allgather + three all-to-alls, in that
//     order) is exactly the seed's; only the arc payload bytes differ.

// mergeHistChunks caps the per-chunk histogram count of the merge's
// counting passes: each chunk owns a keyspace-sized histogram row, so the
// cap bounds the scratch at mergeHistChunks × coarse-vertex-count entries
// per rank regardless of the pool's chunk limit.
const mergeHistChunks = 8

// mergeChunks returns the chunk count for the merge's record passes over m
// records: the pool's usual data-size rule, capped by mergeHistChunks.
func mergeChunks(m int) int {
	nc := par.NumChunks(m)
	if nc > mergeHistChunks {
		nc = mergeHistChunks
	}
	return nc
}

// mergeScratch holds the merge pipeline's reusable arrays. The session
// threads one instance through its successive stages (st2.ms = cs.ms), so
// every merge level after the first reuses the grown storage; within one
// merge the record arrays double as send-side sort space and receive-side
// assembly space (the transports copy payloads on Send, so the send
// records are dead once the all-to-all returns).
type mergeScratch struct {
	dense    []int32      // community → dense coarse ID (s.dense aliases this)
	denseOwn []int32      // owned-community row c/p → dense ID, -1 = empty
	cnt      *wire.Buffer // dense-count allgather encode scratch

	// Record arrays: two (x, y, w) column sets ping-ponged by the stable
	// counting scatters. Column meaning is positional per pass (see merge).
	xA, yA []int32
	wA     []int64
	xB, yB []int32
	wB     []int64

	vtxOff    []int    // translate: per-local-vertex first-record offset
	hist      []int32  // per-chunk histograms / exclusive scatter positions
	dstOff    []int    // sender: per-destination record ranges (p+1)
	frameOff  []int    // receiver: per-source record ranges (p+1)
	frameBody [][]byte // receiver: frame payloads after the count header
	rowOff    []int    // receiver: per-owned-row record ranges
	arcOff    []int    // receiver: per-owned-row output arc offsets
	rowCnt    []int    // receiver: per-owned-row distinct arc count
	rowW      []int64
	subMask   []uint64 // per-owned-row subscriber rank bitmask (p ≤ 64)
	subMark   []bool   // subscriber dedup marks (p > 64 fallback)
}

// grow returns s resized to n entries, reusing the backing array when it
// already fits. Contents are unspecified — every merge pass overwrites its
// range before reading it.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// merge implements Algorithm 3: dense numbering, dense-ID resolution, arc
// shipping with local pre-aggregation, and counting-sort assembly. After
// merge returns, s.dense holds the dense mapping for the communities this
// rank references, which the driver uses to re-point original vertices.
func (s *stage) merge() (*partition.Subgraph, int, error) {
	if s.ms == nil {
		s.ms = &mergeScratch{cnt: wire.NewBuffer(8)}
	}
	ms := s.ms

	// 1. Dense numbering of non-empty owned communities: count them, agree
	// on prefix offsets via an allgather, then assign consecutive IDs into
	// the strided denseOwn table (row c/p holds community c ≡ rnk mod p).
	rowsOwn := 0
	if s.n > s.rnk {
		rowsOwn = (s.n-s.rnk-1)/s.p + 1
	}
	ms.denseOwn = grow(ms.denseOwn, rowsOwn)
	nLocal := 0
	for c := s.rnk; c < s.n; c += s.p {
		if s.ownSize[c] > 0 {
			nLocal++
		}
	}
	ms.cnt.Reset()
	ms.cnt.PutUvarint(uint64(nLocal))
	counts, err := comm.Allgather(s.c, ms.cnt.Bytes())
	if err != nil {
		return nil, 0, err
	}
	base, total := 0, 0
	for r := 0; r < s.p; r++ {
		n := int(wire.NewReader(counts[r]).Uvarint())
		if r < s.rnk {
			base += n
		}
		total += n
	}
	id := int32(base)
	for c := s.rnk; c < s.n; c += s.p {
		if s.ownSize[c] > 0 {
			ms.denseOwn[c/s.p] = id
			id++
		} else {
			ms.denseOwn[c/s.p] = -1
		}
	}

	// 2. Every rank learns the dense ID of each community it references.
	// The exchange reuses the stage's pooled encode buffers (sendScratch).
	reqs := s.neededCommunities()
	out := s.sendScratch()
	for r := 0; r < s.p; r++ {
		b := s.sendBufs[r]
		b.PutInts(reqs[r])
		out[r] = b.Bytes()
	}
	in, err := s.alltoallv(out)
	if err != nil {
		return nil, 0, err
	}
	replies := s.sendScratch()
	for r := 0; r < s.p; r++ {
		rd := wire.NewReader(in[r])
		ids := rd.Ints()
		if err := rd.Err(); err != nil {
			return nil, 0, err
		}
		b := s.sendBufs[r]
		for _, c := range ids {
			d := int32(-1) // requested an empty or foreign community: must not happen for labels in use
			if c >= 0 && c < s.n && s.owns(c) {
				d = ms.denseOwn[c/s.p]
			}
			b.PutVarint(int64(d))
		}
		replies[r] = b.Bytes()
	}
	// Install dense IDs as each reply arrives: every community is in
	// exactly one request bucket, so the per-source writes are disjoint
	// and arrival order is immaterial. The dense table is pooled scratch
	// reused across merge levels, reset by a sized fill.
	if cap(ms.dense) >= s.n {
		s.dense = ms.dense[:s.n]
	} else {
		s.dense = make([]int32, s.n)
	}
	ms.dense = s.dense
	fillInt32(s.dense, -1)
	err = comm.AlltoallvFunc(s.c, replies, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		for _, c := range reqs[src] {
			s.dense[c] = int32(rd.Varint())
		}
		return rd.Err()
	})
	if err != nil {
		return nil, 0, err
	}

	// 3. Translate every local arc to dense IDs, in the seed's ship order
	// (owned vertices in order, then hubs, adjacency order within each) —
	// the encounter order all duplicate combining below preserves. The
	// per-vertex record offsets make the pass embarrassingly parallel.
	sg := s.sg
	nOwned := len(sg.Owned)
	nv := nOwned + len(sg.Hubs)
	ms.vtxOff = grow(ms.vtxOff, nv+1)
	m := 0
	for i := 0; i < nOwned; i++ {
		ms.vtxOff[i] = m
		m += len(sg.AdjOwned[i])
	}
	for i := 0; i < len(sg.Hubs); i++ {
		ms.vtxOff[nOwned+i] = m
		m += len(sg.AdjHub[i])
	}
	ms.vtxOff[nv] = m
	ms.xA, ms.yA, ms.wA = grow(ms.xA, m), grow(ms.yA, m), grow(ms.wA, m)
	ms.xB, ms.yB, ms.wB = grow(ms.xB, m), grow(ms.yB, m), grow(ms.wB, m)
	tChunks := par.NumChunks(nv)
	s.pool.ParFor(tChunks, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(nv, tChunks, chunk)
		bad := int64(0)
		for i := lo; i < hi; i++ {
			var u int
			var adj []partition.Arc
			if i < nOwned {
				u, adj = sg.Owned[i], sg.AdjOwned[i]
			} else {
				u, adj = sg.Hubs[i-nOwned], sg.AdjHub[i-nOwned]
			}
			cu := s.dense[s.comm[u]]
			if cu < 0 {
				cu, bad = 0, bad+1
			}
			pos := ms.vtxOff[i]
			for _, a := range adj {
				cv := s.dense[s.comm[a.To]]
				if cv < 0 {
					cv, bad = 0, bad+1
				}
				ms.xA[pos] = cv // x = cv: pass-1 sort key
				ms.yA[pos] = cu
				ms.wA[pos] = a.W
				pos++
			}
		}
		s.chunkWork[chunk] = bad
	})
	for c := 0; c < tChunks; c++ {
		if s.chunkWork[c] != 0 {
			return nil, 0, fmt.Errorf("core: rank %d: merge: local vertex references an unmapped community", s.rnk)
		}
	}

	// 4. Two stable counting scatters bring the records into destination-
	// major (cu, cv)-sorted order: first by cv, then by the fused key
	// (cu mod p)·rowsCap + cu/p, whose major dimension is the destination
	// rank. Stability keeps equal (cu, cv) pairs in translate order.
	nc := mergeChunks(m)
	ks := total
	ms.hist = grow(ms.hist, nc*ks)
	s.pool.ParFor(nc, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(m, nc, chunk)
		histCount(ms.xA, lo, hi, ms.hist[chunk*ks:(chunk+1)*ks])
	})
	histOffsets(ms.hist, nc, ks, 0, nil)
	s.pool.ParFor(nc, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(m, nc, chunk)
		scatterRecords(ms.xA, ms.yA, ms.wA, lo, hi, ms.hist[chunk*ks:(chunk+1)*ks], ms.xB, ms.yB, ms.wB)
	})
	rowsCap := (total + s.p - 1) / s.p
	ks2 := s.p * rowsCap
	ms.hist = grow(ms.hist, nc*ks2)
	ms.dstOff = grow(ms.dstOff, s.p+1)
	p32, rc32 := int32(s.p), int32(rowsCap)
	s.pool.ParFor(nc, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(m, nc, chunk)
		histCountFused(ms.yB, lo, hi, p32, rc32, ms.hist[chunk*ks2:(chunk+1)*ks2])
	})
	if rowsCap > 0 {
		histOffsets(ms.hist, nc, ks2, rowsCap, ms.dstOff[:s.p+1])
	} else {
		for i := range ms.dstOff {
			ms.dstOff[i] = 0
		}
	}
	s.pool.ParFor(nc, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(m, nc, chunk)
		// Key on the cu column; the swap lands the output as (x=cu, y=cv).
		scatterFused(ms.yB, ms.xB, ms.wB, lo, hi, p32, rc32, ms.hist[chunk*ks2:(chunk+1)*ks2], ms.xA, ms.yA, ms.wA)
	})

	// 5. Encode one key-grouped frame per destination, in parallel (one
	// chunk per destination: each touches only its own rank's buffer).
	// Frame format: uvarint record count, then per-cu groups of [row
	// delta, distinct-cv count, (cv delta, weight count, uvarint
	// weights...) ...] — deltas off a -1 predecessor, so they are strictly
	// positive. Every duplicate (cu, cv) pair costs one tag byte instead of
	// a repeated cu/cv varint pair; the weights ship unsummed, in translate
	// encounter order.
	arcBufs := s.sendScratch()
	s.pool.ParFor(s.p, func(d, _ int) {
		lo, hi := ms.dstOff[d], ms.dstOff[d+1]
		b := s.sendBufs[d]
		want := arcFrameLen(ms.xA, ms.yA, ms.wA, lo, hi, p32)
		b.Grow(want)
		b.PutUvarint(uint64(hi - lo))
		prevRow := int32(-1)
		i := lo
		for i < hi {
			cu := ms.xA[i]
			j := i
			for j < hi && ms.xA[j] == cu {
				j++
			}
			row := cu / p32
			b.PutUvarint(uint64(row - prevRow))
			distinct := 0
			for k := i; k < j; k++ {
				if k == i || ms.yA[k] != ms.yA[k-1] {
					distinct++
				}
			}
			b.PutUvarint(uint64(distinct))
			prevCv := int32(-1)
			for k := i; k < j; {
				cv := ms.yA[k]
				l := k
				for l < j && ms.yA[l] == cv {
					l++
				}
				b.PutUvarint(uint64(cv - prevCv))
				b.PutUvarint(uint64(l - k))
				for ; k < l; k++ {
					b.PutUvarint(uint64(ms.wA[k]))
				}
				prevCv = cv
			}
			prevRow = row
			i = j
		}
		arcBufs[d] = b.Bytes()
		s.chunkWork[d] = int64(b.Len() - want)
	})
	for d := 0; d < s.p; d++ {
		if s.chunkWork[d] != 0 {
			return nil, 0, fmt.Errorf("core: rank %d: merge: arc frame for rank %d is %d bytes off its predicted length", s.rnk, d, s.chunkWork[d])
		}
	}
	arcIn, err := s.alltoallv(arcBufs)
	if err != nil {
		return nil, 0, err
	}

	// 6. Size the receive regions from the frame headers — rank-ordered,
	// so the concatenated record array preserves rank order for duplicate
	// (row, cv) pairs through the stable passes below — then decode the
	// frame bodies in parallel into disjoint regions.
	ms.frameOff = grow(ms.frameOff, s.p+1)
	ms.frameBody = grow(ms.frameBody, s.p)
	mr := 0
	for r := 0; r < s.p; r++ {
		ms.frameOff[r] = mr
		var rd wire.Reader
		rd.Reset(arcIn[r])
		n := int(rd.Uvarint())
		if err := rd.Err(); err != nil {
			return nil, 0, err
		}
		if n < 0 || n > len(arcIn[r]) {
			return nil, 0, fmt.Errorf("core: rank %d: merge: malformed arc frame from rank %d", s.rnk, r)
		}
		ms.frameBody[r] = arcIn[r][len(arcIn[r])-rd.Remaining():]
		mr += n
	}
	ms.frameOff[s.p] = mr
	ms.xA, ms.yA, ms.wA = grow(ms.xA, mr), grow(ms.yA, mr), grow(ms.wA, mr)
	ms.xB, ms.yB, ms.wB = grow(ms.xB, mr), grow(ms.yB, mr), grow(ms.wB, mr)
	rowsLocal := 0
	if total > s.rnk {
		rowsLocal = (total-s.rnk-1)/s.p + 1
	}
	rl32, t32 := int32(rowsLocal), int32(total)
	s.pool.ParFor(s.p, func(r, _ int) {
		var rd wire.Reader
		rd.Reset(ms.frameBody[r])
		pos, end := ms.frameOff[r], ms.frameOff[r+1]
		prevRow := int32(-1)
		for pos < end {
			row := prevRow + int32(rd.Uvarint())
			ncv := int(rd.Uvarint())
			if rd.Err() != nil || row <= prevRow || row >= rl32 || ncv <= 0 || ncv > end-pos {
				s.chunkWork[r] = -1
				return
			}
			prevCv := int32(-1)
			for j := 0; j < ncv; j++ {
				cv := prevCv + int32(rd.Uvarint())
				nw := int(rd.Uvarint())
				if rd.Err() != nil || cv <= prevCv || cv >= t32 || nw <= 0 || nw > end-pos {
					s.chunkWork[r] = -1
					return
				}
				for k := 0; k < nw; k++ {
					ms.xA[pos] = cv // x = cv: pass-1 sort key
					ms.yA[pos] = row
					ms.wA[pos] = int64(rd.Uvarint())
					pos++
				}
				prevCv = cv
			}
			prevRow = row
		}
		if rd.Err() != nil || rd.Remaining() != 0 {
			s.chunkWork[r] = -1
			return
		}
		s.chunkWork[r] = 0
	})
	for r := 0; r < s.p; r++ {
		if s.chunkWork[r] != 0 {
			return nil, 0, fmt.Errorf("core: rank %d: merge: malformed arc frame from rank %d", s.rnk, r)
		}
	}

	// 7. Counting-sort assembly: stable scatter by cv, then by owned row.
	// After both passes the records are row-major with ascending cv inside
	// each row and rank order inside each (row, cv) — exactly the order the
	// seed accumulated and emitted them in.
	ncr := mergeChunks(mr)
	ms.hist = grow(ms.hist, ncr*ks)
	s.pool.ParFor(ncr, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(mr, ncr, chunk)
		histCount(ms.xA, lo, hi, ms.hist[chunk*ks:(chunk+1)*ks])
	})
	histOffsets(ms.hist, ncr, ks, 0, nil)
	s.pool.ParFor(ncr, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(mr, ncr, chunk)
		scatterRecords(ms.xA, ms.yA, ms.wA, lo, hi, ms.hist[chunk*ks:(chunk+1)*ks], ms.xB, ms.yB, ms.wB)
	})
	// Ghosts drop out of the cv-sorted intermediate: one serial walk over
	// the distinct cv values, ascending — the seed's sorted ghost set.
	nGhost := 0
	prev := int32(-1)
	for i := 0; i < mr; i++ {
		if cv := ms.xB[i]; cv != prev {
			prev = cv
			if !s.owns(int(cv)) {
				nGhost++
			}
		}
	}
	ghosts := make([]int, 0, nGhost)
	prev = -1
	for i := 0; i < mr; i++ {
		if cv := ms.xB[i]; cv != prev {
			prev = cv
			if !s.owns(int(cv)) {
				ghosts = append(ghosts, int(cv))
			}
		}
	}
	ms.rowOff = grow(ms.rowOff, rowsLocal+1)
	ms.hist = grow(ms.hist, ncr*rowsLocal)
	s.pool.ParFor(ncr, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(mr, ncr, chunk)
		histCount(ms.yB, lo, hi, ms.hist[chunk*rowsLocal:(chunk+1)*rowsLocal])
	})
	if rowsLocal > 0 {
		histOffsets(ms.hist, ncr, rowsLocal, 1, ms.rowOff[:rowsLocal+1])
	} else {
		ms.rowOff[0] = 0
	}
	s.pool.ParFor(ncr, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(mr, ncr, chunk)
		// Key on the row column; the swap lands the output as (x=row, y=cv).
		scatterRecords(ms.yB, ms.xB, ms.wB, lo, hi, ms.hist[chunk*rowsLocal:(chunk+1)*rowsLocal], ms.xA, ms.yA, ms.wA)
	})

	// 8. Combine duplicate (row, cv) runs in place — exact integer sums —
	// and record per-row counts, degrees, and subscriber masks.
	// Rows are wholly contained in their chunk, so the in-place compaction
	// and the per-row outputs are disjoint across chunks.
	ms.rowCnt = grow(ms.rowCnt, rowsLocal)
	ms.rowW = grow(ms.rowW, rowsLocal)
	ms.subMask = grow(ms.subMask, rowsLocal)
	rChunks := par.NumChunks(rowsLocal)
	s.pool.ParFor(rChunks, func(chunk, _ int) {
		lo, hi := par.ChunkSpan(rowsLocal, rChunks, chunk)
		for row := lo; row < hi; row++ {
			b, e := ms.rowOff[row], ms.rowOff[row+1]
			outPos := b
			var wdeg int64
			var mask uint64
			for i := b; i < e; {
				cv := ms.yA[i]
				var w int64
				for i < e && ms.yA[i] == cv {
					w += ms.wA[i]
					i++
				}
				ms.yA[outPos] = cv
				ms.wA[outPos] = w
				outPos++
				wdeg += w
				if d := ownerOf(int(cv), s.p); d != s.rnk && s.p <= 64 {
					mask |= 1 << uint(d)
				}
			}
			ms.rowCnt[row] = outPos - b
			ms.rowW[row] = wdeg
			ms.subMask[row] = mask
		}
	})

	// 9. Build the coarse subgraph: one flat arc array carved into per-row
	// windows (exclusive prefix over the combined counts), filled in
	// parallel by row chunk.
	ms.arcOff = grow(ms.arcOff, rowsLocal+1)
	atot := 0
	for row := 0; row < rowsLocal; row++ {
		ms.arcOff[row] = atot
		atot += ms.rowCnt[row]
	}
	ms.arcOff[rowsLocal] = atot
	ns := &partition.Subgraph{
		Rank: s.rnk, P: s.p,
		GlobalVertices: total,
		Subscribers:    make(map[int][]int),
		TotalWeight2:   s.m2,
		Ghosts:         ghosts,
	}
	if rowsLocal > 0 {
		ns.Owned = make([]int, rowsLocal)
		ns.AdjOwned = make([][]partition.Arc, rowsLocal)
		ns.OwnedWDeg = make([]int64, rowsLocal)
		flat := make([]partition.Arc, atot)
		s.pool.ParFor(rChunks, func(chunk, _ int) {
			lo, hi := par.ChunkSpan(rowsLocal, rChunks, chunk)
			for row := lo; row < hi; row++ {
				b := ms.rowOff[row]
				o, cnt := ms.arcOff[row], ms.rowCnt[row]
				seg := flat[o : o+cnt : o+cnt]
				for j := 0; j < cnt; j++ {
					seg[j] = partition.Arc{To: int(ms.yA[b+j]), W: ms.wA[b+j]}
				}
				ns.Owned[row] = s.rnk + row*s.p
				ns.AdjOwned[row] = seg
				ns.OwnedWDeg[row] = ms.rowW[row]
			}
		})
	}
	if s.p <= 64 {
		for row := 0; row < rowsLocal; row++ {
			mask := ms.subMask[row]
			if mask == 0 {
				continue
			}
			subs := make([]int, 0, bits.OnesCount64(mask))
			for d := 0; d < s.p; d++ {
				if mask&(1<<uint(d)) != 0 {
					subs = append(subs, d)
				}
			}
			ns.Subscribers[s.rnk+row*s.p] = subs
		}
	} else {
		// Wide worlds overflow the 64-bit mask: dedup subscriber ranks per
		// row against a marks array instead (serial, O(arcs + rows·p)).
		ms.subMark = grow(ms.subMark, s.p)
		for i := range ms.subMark {
			ms.subMark[i] = false
		}
		for row := 0; row < rowsLocal; row++ {
			cnt := 0
			for _, a := range ns.AdjOwned[row] {
				if d := ownerOf(a.To, s.p); d != s.rnk && !ms.subMark[d] {
					ms.subMark[d] = true
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			subs := make([]int, 0, cnt)
			for d := 0; d < s.p; d++ {
				if ms.subMark[d] {
					subs = append(subs, d)
					ms.subMark[d] = false
				}
			}
			ns.Subscribers[s.rnk+row*s.p] = subs
		}
	}
	return ns, total, nil
}

// arcFrameLen returns the exact encoded length of the arc frame merge step 5
// builds from records [lo:hi), sorted by (x = cu, y = cv), with weights w:
// its uvarints. The buffer is reserved at that size up front; grown by
// doubling, the frames were the largest garbage of a run.
func arcFrameLen(x, y []int32, w []int64, lo, hi int, p int32) int {
	n := wire.UvarintLen(uint64(hi - lo))
	for _, wt := range w[lo:hi] {
		n += wire.UvarintLen(uint64(wt))
	}
	prevRow := int32(-1)
	for i := lo; i < hi; {
		cu, row := x[i], x[i]/p
		n += wire.UvarintLen(uint64(row - prevRow))
		prevRow = row
		distinct, prevCv := 0, int32(-1)
		for ; i < hi && x[i] == cu; distinct++ {
			cv, k := y[i], i
			for i < hi && x[i] == cu && y[i] == cv {
				i++
			}
			n += wire.UvarintLen(uint64(cv-prevCv)) + wire.UvarintLen(uint64(i-k))
			prevCv = cv
		}
		n += wire.UvarintLen(uint64(distinct))
	}
	return n
}

// fillInt32 sets every entry of s to v (the sized-fill reset of the pooled
// dense table).
//
//perf:noalloc
func fillInt32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// histCount zeroes h and counts keys[lo:hi] into it (one histogram row per
// chunk; the caller passes this chunk's row).
//
//perf:noalloc
func histCount(keys []int32, lo, hi int, h []int32) {
	for i := range h {
		h[i] = 0
	}
	for i := lo; i < hi; i++ {
		h[keys[i]]++
	}
}

// histCountFused is histCount keyed by (k mod p)·rowsCap + k/p — the
// destination-major fused key of the sender's second pass.
//
//perf:noalloc
func histCountFused(keys []int32, lo, hi int, p, rowsCap int32, h []int32) {
	for i := range h {
		h[i] = 0
	}
	for i := lo; i < hi; i++ {
		k := keys[i]
		h[(k%p)*rowsCap+k/p]++
	}
}

// histOffsets converts the per-chunk key counts in h (nc rows of ks keys)
// into exclusive scatter positions, chunk-major within each key so the
// scatter is stable, and returns the total count. When stride > 0 it also
// captures the running total at every stride-th key into bounds (bounds[j]
// = first position of key j·stride) and fills the tail with the total —
// the per-group ranges the callers slice records by.
//
//perf:noalloc
func histOffsets(h []int32, nc, ks, stride int, bounds []int) int {
	sum := 0
	bi := 0
	for k := 0; k < ks; k++ {
		if stride > 0 && k%stride == 0 {
			bounds[bi] = sum
			bi++
		}
		for c := 0; c < nc; c++ {
			i := c*ks + k
			v := int(h[i])
			h[i] = int32(sum)
			sum += v
		}
	}
	if stride > 0 {
		for ; bi < len(bounds); bi++ {
			bounds[bi] = sum
		}
	}
	return sum
}

// scatterRecords stably scatters records [lo:hi) keyed by their x column to
// the positions in h (this chunk's row, prepared by histOffsets), carrying
// the y and w columns along.
//
//perf:noalloc
func scatterRecords(x, y []int32, w []int64, lo, hi int, h []int32, ox, oy []int32, ow []int64) {
	for i := lo; i < hi; i++ {
		k := x[i]
		pos := h[k]
		h[k] = pos + 1
		ox[pos] = k
		oy[pos] = y[i]
		ow[pos] = w[i]
	}
}

// scatterFused is scatterRecords keyed by the destination-major fused key
// of the x column (matching histCountFused).
//
//perf:noalloc
func scatterFused(x, y []int32, w []int64, lo, hi int, p, rowsCap int32, h []int32, ox, oy []int32, ow []int64) {
	for i := lo; i < hi; i++ {
		cu := x[i]
		k := (cu%p)*rowsCap + cu/p
		pos := h[k]
		h[k] = pos + 1
		ox[pos] = cu
		oy[pos] = y[i]
		ow[pos] = w[i]
	}
}

// resolveQueries maps each query x to lookup(x) evaluated on the rank that
// owns x, via a request/reply all-to-all exchange. Both legs stream: each
// request frame is answered as it arrives (the reply for source r depends
// only on r's frame), and each reply is scattered into the result as it
// lands (pos buckets are disjoint), so all decode/encode work overlaps
// in-flight traffic. The request routing slices and both legs' encode
// buffers are pooled on the stage, so repeated calls (one per merge level,
// one per update batch, one per install) allocate only the result slice.
func (s *stage) resolveQueries(queries []int, lookup func(int) int) ([]int, error) {
	for r := 0; r < s.p; r++ {
		s.rqReqs[r] = s.rqReqs[r][:0]
		s.rqPos[r] = s.rqPos[r][:0]
	}
	for i, x := range queries {
		o := ownerOf(x, s.p)
		s.rqReqs[o] = append(s.rqReqs[o], x)
		s.rqPos[o] = append(s.rqPos[o], i)
	}
	out := s.sendScratch()
	for r := 0; r < s.p; r++ {
		b := s.sendBufs[r]
		b.PutInts(s.rqReqs[r])
		out[r] = b.Bytes()
	}
	// Replies stream into their own buffer set: the request frames in
	// sendBufs must stay intact while the first leg is still in flight.
	for r := 0; r < s.p; r++ {
		s.rqBufs[r].Reset()
		s.rqFrames[r] = nil
	}
	err := comm.AlltoallvFunc(s.c, out, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		ids := rd.Ints()
		if err := rd.Err(); err != nil {
			return err
		}
		b := s.rqBufs[src]
		for _, x := range ids {
			b.PutVarint(int64(lookup(x)))
		}
		s.rqFrames[src] = b.Bytes()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := make([]int, len(queries))
	err = comm.AlltoallvFunc(s.c, s.rqFrames, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		for _, i := range s.rqPos[src] {
			res[i] = int(rd.Varint())
		}
		return rd.Err()
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
