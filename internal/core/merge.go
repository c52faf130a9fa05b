package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/wire"
)

// This file implements the paper's distributed graph merging (Algorithm 3)
// as a zero-map serial pipeline: communities become the vertices of a
// coarser graph, each coarse vertex's arcs are summed locally per head,
// shipped to the new owners (1D partitioning by new-ID mod P), and each rank
// assembles its portion of the merged graph with the same histogram →
// offsets → stable-scatter counting sort the ingest CSR builder uses
// (graph.FromEdges). Three properties are load-bearing:
//
//   - Sum before sorting: the sender buckets its sources by coarse vertex
//     and sums each bucket's arcs per head before it emits a record, so its
//     scratch follows the distinct (cu, cv) pairs, not the arcs. Each frame
//     carries every distinct cu once and every distinct (cu, cv) pair once,
//     with one weight, delta-coded and shifted by the frame's weight scale —
//     so the bytes shrink by the local duplication factor, and the 2⁻²⁰
//     units' shared trailing zero bits stay home. The receiver sums the
//     per-source weights of a pair again.
//     The sums are exact integers, so the coarse graph is byte-identical to
//     the seed's whatever order they are taken in.
//
//   - No maps: the seed's denseOf / adj / ghost / subscriber maps are
//     replaced by a strided owned-community table, flat record arrays, and
//     a subscriber marks array, all pooled in a mergeScratch that the
//     session threads through successive merge levels, so steady-state
//     levels reuse their storage.
//
//   - The collective schedule (one allgather + three all-to-alls, in that
//     order) is exactly the seed's; only the arc payload bytes differ.

// mergeScratch holds the merge pipeline's reusable arrays. The session
// threads one instance through its successive stages (nextStage hands it
// on), so every merge level after the first reuses the grown storage;
// within one merge the A record columns hold the sender's summed records
// and then the receiver's decoded ones (the transports copy payloads on
// Send, so the send records are dead once the all-to-all returns).
type mergeScratch struct {
	dense    []int32      // community → dense coarse ID (s.dense aliases this)
	denseOwn []int32      // owned-community row c/p → dense ID, -1 = empty
	cnt      *wire.Buffer // dense-count allgather encode scratch
	need     []int        // label of each owned vertex, hub and ghost, in that order
	ids      []int        // the dense ID of each need entry

	// Sender: each source's (owned vertices, then hubs) bucket key, and the
	// sources in bucket order.
	srcKey []int32
	srcs   []int32

	// Record arrays: two (x, y, w) column sets, sized to the records sent or
	// received — exactly, by a solve's first merge, and reused after — which
	// the receiver ping-pongs through its stable counting scatters. Column
	// meaning is positional per pass (see merge).
	xA, yA []int32
	wA     []int64
	xB, yB []int32
	wB     []int64

	hist      []int32  // key histogram / exclusive scatter positions
	dstOff    []int    // sender: per-destination record ranges (p+1)
	frameOff  []int    // receiver: per-source record ranges (p+1)
	frameBody [][]byte // receiver: frame payloads after the count header
	rowOff    []int    // receiver: per-owned-row record ranges
	subMark   []bool   // subscriber dedup marks, one per rank
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

// slots is the number of ids in [0, n) that rank r of p owns (id mod p = r).
func slots(n, r, p int) int {
	if n <= r {
		return 0
	}
	return (n-r-1)/p + 1
}

// merge implements Algorithm 3: dense numbering, dense-ID resolution, arc
// shipping summed per (cu, cv) pair, and counting-sort assembly. After
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
	ms.denseOwn = grow(ms.denseOwn, slots(s.n, s.rnk, s.p))
	nLocal := 0
	for c := s.rnk; c < s.n; c += s.p {
		if s.ownSize[c] > 0 {
			nLocal++
		}
	}
	ms.cnt.Reset()
	ms.cnt.PutUvarint(uint64(nLocal))
	mark := s.bytesSent()
	counts, err := comm.Allgather(s.c, ms.cnt.Bytes())
	if err != nil {
		return nil, 0, err
	}
	s.charge(exMerge, mark)
	base, total := 0, 0
	for r := 0; r < s.p; r++ {
		// A count is one uvarint, at most the sender's slot count.
		rd := wire.NewReader(counts[r])
		n := rd.Uvarint()
		switch {
		case rd.Err() != nil:
			return nil, 0, frameErr(s.rnk, "merge count", r, rd.Err())
		case rd.Remaining() != 0:
			return nil, 0, frameErr(s.rnk, "merge count", r, errLongFrame)
		case n > uint64(slots(s.n, r, s.p)):
			return nil, 0, frameErr(s.rnk, "merge count", r, nil)
		}
		if r < s.rnk {
			base += int(n)
		}
		total += int(n)
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

	// 2. Every rank learns the dense ID of each community it references —
	// the label of every owned vertex, hub and ghost — from the community's
	// owner; resolveQueries asks each owner once per distinct label. An
	// empty community has no dense ID (-1), which the reply check refuses:
	// every label in use is non-empty at its owner.
	ms.need = grow(ms.need, len(s.sg.Owned)+len(s.sg.Hubs)+len(s.sg.Ghosts))
	i := 0
	for _, vs := range [][]int{s.sg.Owned, s.sg.Hubs, s.sg.Ghosts} {
		for _, v := range vs {
			ms.need[i] = int(s.comm[v])
			i++
		}
	}
	ids, err := s.resolveQueries(ms.ids, ms.need, total, func(c int) int { return int(ms.denseOwn[c/s.p]) })
	if err != nil {
		return nil, 0, err
	}
	ms.ids = ids
	// The dense table is pooled scratch reused across merge levels, reset by
	// a sized fill.
	if cap(ms.dense) >= s.n {
		s.dense = ms.dense[:s.n]
	} else {
		s.dense = make([]int32, s.n)
	}
	ms.dense = s.dense
	fillInt32(s.dense, -1)
	for i, c := range ms.need {
		s.dense[c] = int32(ids[i])
	}

	// 3. Bucket the local sources — owned vertices, then hubs, numbered in
	// that order — by the fused destination-major key (cu mod p)·rowsCap +
	// cu/p of their coarse id cu: one stable counting sort over vertices,
	// not arcs. Bucket k holds the sources of coarse vertex
	// (k mod rowsCap)·p + k/rowsCap, so the buckets run destination by
	// destination and row by row inside each.
	sg := s.sg
	nOwn := len(sg.Owned)
	rowsCap := (total + s.p - 1) / s.p
	ms.srcKey = grow(ms.srcKey, nOwn+len(sg.Hubs))
	for i, u := range sg.Owned {
		ms.srcKey[i] = fusedKey(s.dense[s.comm[u]], s.p, rowsCap)
	}
	for i, h := range sg.Hubs {
		ms.srcKey[nOwn+i] = fusedKey(s.dense[s.comm[h]], s.p, rowsCap)
	}
	ms.hist = grow(ms.hist, s.p*rowsCap)
	histCount(ms.srcKey, ms.hist)
	histOffsets(ms.hist, 0, nil)
	ms.srcs = grow(ms.srcs, len(ms.srcKey))
	for i, k := range ms.srcKey {
		ms.srcs[ms.hist[k]] = int32(i)
		ms.hist[k]++
	}
	// The scatter left hist[k] at the end of bucket k.
	bucket := func(k int) []int32 {
		lo := int32(0)
		if k > 0 {
			lo = ms.hist[k-1]
		}
		return ms.srcs[lo:ms.hist[k]]
	}

	// 4. Sum before sorting: each bucket's arcs are summed per cv in the
	// idle gain accumulator, and the bucket appends one record per distinct
	// (cu, cv), cv ascending — the destination-major, (cu, cv)-sorted,
	// pair-summed order the frames are encoded in. The records fit in the
	// arc count, and so in the columns of every merge after a solve's first
	// (a level's arcs are the records the previous one received). Shorter
	// columns are sized exactly, to the distinct heads a first walk counts.
	records := 0
	for _, adj := range sg.AdjOwned {
		records += len(adj)
	}
	for _, adj := range sg.AdjHub {
		records += len(adj)
	}
	if cap(ms.xA) < records {
		s.acc.reset() // the last sweep's keys
		records = 0
		for k := 0; k < s.p*rowsCap; k++ {
			records += s.countHeads(int64(k)+1, bucket(k))
		}
		clear(s.acc.w)
	}
	ms.xA, ms.yA, ms.wA = grow(ms.xA, records), grow(ms.yA, records), grow(ms.wA, records)
	ms.dstOff = grow(ms.dstOff, s.p+1)
	pos := 0
	for d := 0; d < s.p; d++ {
		ms.dstOff[d] = pos
		for row := 0; row < rowsCap; row++ {
			pos = s.sumBucket(int32(row*s.p+d), bucket(d*rowsCap+row), ms.xA, ms.yA, ms.wA, pos)
		}
	}
	ms.dstOff[s.p] = pos
	p32 := int32(s.p)

	// 5. Encode one key-grouped frame per destination. Frame format:
	// uvarint record count, the scale byte of the frame's weights
	// (wire.Scale), then per-cu groups of [row delta, distinct-cv count,
	// (cv delta, uvarint weight >> scale) ...] — deltas off a -1
	// predecessor, so they are strictly positive.
	arcBufs := s.sendScratch()
	for d := 0; d < s.p; d++ {
		lo, hi := ms.dstOff[d], ms.dstOff[d+1]
		b := s.sendBufs[d]
		or := int64(0)
		for _, w := range ms.wA[lo:hi] {
			or |= w
		}
		sc := wire.Scale(or)
		want := arcFrameLen(ms.xA, ms.yA, ms.wA, lo, hi, p32, sc)
		b.Grow(want)
		b.PutUvarint(uint64(hi - lo))
		b.PutScale(sc)
		prevRow := int32(-1)
		for i := lo; i < hi; {
			cu := ms.xA[i]
			j := i
			for j < hi && ms.xA[j] == cu {
				j++
			}
			row := cu / p32
			b.PutUvarint(uint64(row - prevRow))
			b.PutUvarint(uint64(j - i))
			prevCv := int32(-1)
			for ; i < j; i++ {
				b.PutUvarint(uint64(ms.yA[i] - prevCv))
				b.PutScaledUvarint(ms.wA[i], sc)
				prevCv = ms.yA[i]
			}
			prevRow = row
		}
		if b.Len() != want {
			return nil, 0, fmt.Errorf("core: rank %d: merge: arc frame for rank %d is %d bytes off its predicted length", s.rnk, d, b.Len()-want)
		}
		arcBufs[d] = b.Bytes()
	}
	mark = s.bytesSent()
	arcIn, err := comm.Alltoallv(s.c, arcBufs)
	if err != nil {
		return nil, 0, err
	}
	s.charge(exMerge, mark)

	// 6. Size the receive regions from the frame headers — rank-ordered,
	// so the concatenated record array preserves rank order for duplicate
	// (row, cv) pairs through the stable passes below — then decode the
	// frame bodies into them.
	ms.frameOff = grow(ms.frameOff, s.p+1)
	ms.frameBody = grow(ms.frameBody, s.p)
	mr := 0
	for r := 0; r < s.p; r++ {
		ms.frameOff[r] = mr
		var rd wire.Reader
		rd.Reset(arcIn[r])
		n := rd.Uvarint()
		if rd.Err() != nil {
			return nil, 0, frameErr(s.rnk, "merge arc", r, rd.Err())
		}
		if n > uint64(len(arcIn[r])) {
			return nil, 0, frameErr(s.rnk, "merge arc", r, nil)
		}
		ms.frameBody[r] = arcIn[r][len(arcIn[r])-rd.Remaining():]
		mr += int(n)
	}
	ms.frameOff[s.p] = mr
	ms.xA, ms.yA, ms.wA = grow(ms.xA, mr), grow(ms.yA, mr), grow(ms.wA, mr)
	ms.xB, ms.yB, ms.wB = grow(ms.xB, mr), grow(ms.yB, mr), grow(ms.wB, mr)
	rowsLocal := slots(total, s.rnk, s.p)
	for r := 0; r < s.p; r++ {
		if err := s.decodeArcFrame(r, ms.frameBody[r], ms.frameOff[r], ms.frameOff[r+1], rowsLocal, total); err != nil {
			return nil, 0, err
		}
	}

	// 7. Counting-sort assembly: stable scatter by cv, then by owned row.
	// After both passes the records are row-major with ascending cv inside
	// each row and rank order inside each (row, cv) — exactly the order the
	// seed accumulated and emitted them in.
	ms.hist = grow(ms.hist, total)
	histCount(ms.xA[:mr], ms.hist)
	histOffsets(ms.hist, 0, nil)
	scatterRecords(ms.xA[:mr], ms.yA, ms.wA, ms.hist, ms.xB, ms.yB, ms.wB)
	// Ghosts drop out of the cv-sorted intermediate: one walk over the
	// distinct cv values, ascending — the seed's sorted ghost set.
	nGhost := 0
	prev := int32(-1)
	for _, cv := range ms.xB[:mr] {
		if cv != prev {
			prev = cv
			if !s.owns(int(cv)) {
				nGhost++
			}
		}
	}
	ghosts := make([]int, 0, nGhost)
	prev = -1
	for _, cv := range ms.xB[:mr] {
		if cv != prev {
			prev = cv
			if !s.owns(int(cv)) {
				ghosts = append(ghosts, int(cv))
			}
		}
	}
	ms.rowOff = grow(ms.rowOff, rowsLocal+1)
	ms.hist = grow(ms.hist, rowsLocal)
	histCount(ms.yB[:mr], ms.hist)
	histOffsets(ms.hist, 1, ms.rowOff)
	// Key on the row column; the swap lands the output as (x=row, y=cv).
	scatterRecords(ms.yB[:mr], ms.xB, ms.wB, ms.hist, ms.xA, ms.yA, ms.wA)

	// 8. Sum each (row, cv) run across sources — exact integer sums — and
	// build the coarse subgraph: one flat arc array carved into per-row
	// windows, the weighted degrees, and each row's subscriber ranks,
	// deduplicated against the marks array in rank order.
	atot := foldRuns(ms.xA, ms.yA, ms.wA, ms.rowOff)
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
	}
	flat := make([]partition.Arc, atot)
	ms.subMark = grow(ms.subMark, s.p)
	clear(ms.subMark)
	for row := 0; row < rowsLocal; row++ {
		b, e := ms.rowOff[row], ms.rowOff[row+1]
		seg := flat[b:e:e]
		var wdeg int64
		nsub := 0
		for j := range seg {
			cv, w := int(ms.yA[b+j]), ms.wA[b+j]
			seg[j] = partition.Arc{To: cv, W: w}
			wdeg += w
			if d := partition.Owner(cv, s.p); d != s.rnk && !ms.subMark[d] {
				ms.subMark[d] = true
				nsub++
			}
		}
		v := s.rnk + row*s.p
		ns.Owned[row] = v
		ns.AdjOwned[row] = seg
		ns.OwnedWDeg[row] = wdeg
		if nsub == 0 {
			continue
		}
		subs := make([]int, 0, nsub)
		for d := range ms.subMark {
			if ms.subMark[d] {
				subs = append(subs, d)
				ms.subMark[d] = false
			}
		}
		ns.Subscribers[v] = subs
	}
	return ns, total, nil
}

// decodeArcFrame decodes the arc frame body (from its scale byte on) from
// rank src into the records [pos:end) as (x = cv, y = row, w) — cv is the
// receiver's pass-1 sort key. Rows and cvs must strictly ascend inside their
// groups and stay below the receiver's row count and the coarse vertex count
// total, each group must fit the frame's record count, every weight must be
// within partition.MaxWeight2 once scaled back, and the body must end with
// its last record.
func (s *stage) decodeArcFrame(src int, body []byte, pos, end, rows, total int) error {
	ms := s.ms
	var rd wire.Reader
	rd.Reset(body)
	sc := rd.Scale()
	if rd.Err() != nil {
		return frameErr(s.rnk, "merge arc", src, rd.Err())
	}
	prevRow := int32(-1)
	for pos < end {
		dRow, ncv := rd.Uvarint(), rd.Uvarint()
		if rd.Err() != nil {
			return frameErr(s.rnk, "merge arc", src, rd.Err())
		}
		if dRow == 0 || dRow >= uint64(int32(rows)-prevRow) || ncv == 0 || ncv > uint64(end-pos) {
			return frameErr(s.rnk, "merge arc", src, nil)
		}
		row := prevRow + int32(dRow)
		prevCv := int32(-1)
		for ; ncv > 0; ncv-- {
			dCv, w := rd.Uvarint(), rd.ScaledUvarint(sc, partition.MaxWeight2)
			if rd.Err() != nil {
				return frameErr(s.rnk, "merge arc", src, rd.Err())
			}
			if dCv == 0 || dCv >= uint64(int32(total)-prevCv) {
				return frameErr(s.rnk, "merge arc", src, nil)
			}
			cv := prevCv + int32(dCv)
			ms.xA[pos], ms.yA[pos], ms.wA[pos] = cv, row, w
			pos++
			prevCv = cv
		}
		prevRow = row
	}
	if rd.Remaining() != 0 {
		return frameErr(s.rnk, "merge arc", src, errLongFrame)
	}
	return nil
}

// arcFrameLen returns the exact encoded length of the arc frame merge step 5
// builds from records [lo:hi), sorted by (x = cu, y = cv) with each pair
// summed into one record of weight w, under weight scale sc: its uvarints
// and the scale byte. The buffer is reserved at that size up front; grown
// by doubling, the frames were the largest garbage of a run.
func arcFrameLen(x, y []int32, w []int64, lo, hi int, p int32, sc uint) int {
	n := wire.UvarintLen(uint64(hi-lo)) + 1
	prevRow := int32(-1)
	for i := lo; i < hi; {
		cu, row := x[i], x[i]/p
		n += wire.UvarintLen(uint64(row - prevRow))
		prevRow = row
		j, prevCv := i, int32(-1)
		for ; j < hi && x[j] == cu; j++ {
			n += wire.UvarintLen(uint64(y[j]-prevCv)) + wire.UvarintLen(uint64(w[j]>>sc))
			prevCv = y[j]
		}
		n += wire.UvarintLen(uint64(j - i))
		i = j
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

// histCount zeroes h and counts keys into it.
//
//perf:noalloc
func histCount(keys []int32, h []int32) {
	clear(h)
	for _, k := range keys {
		h[k]++
	}
}

// histOffsets converts the key counts in h into exclusive scatter positions.
// When stride > 0 it also captures the running total at every stride-th key
// into bounds (bounds[j] = first position of key j·stride); every bound past
// the last key gets the total — the per-group ranges the callers slice
// records by.
//
//perf:noalloc
func histOffsets(h []int32, stride int, bounds []int) {
	sum, bi := 0, 0
	for k, v := range h {
		if stride > 0 && k%stride == 0 {
			bounds[bi] = sum
			bi++
		}
		h[k] = int32(sum)
		sum += int(v)
	}
	for ; bi < len(bounds); bi++ {
		bounds[bi] = sum
	}
}

// scatterRecords stably scatters the records keyed by x to the positions in
// h (prepared by histOffsets), carrying the y and w columns along.
//
//perf:noalloc
func scatterRecords(x, y []int32, w []int64, h []int32, ox, oy []int32, ow []int64) {
	for i, k := range x {
		pos := h[k]
		h[k] = pos + 1
		ox[pos] = k
		oy[pos] = y[i]
		ow[pos] = w[i]
	}
}

// fusedKey is the destination-major bucket of coarse vertex cu:
// (cu mod p)·rowsCap + cu/p.
func fusedKey(cu int32, p, rowsCap int) int32 {
	return int32(int(cu)%p*rowsCap + int(cu)/p)
}

// countHeads returns the number of distinct head communities among the arcs
// of one bucket's sources (indices into owned vertices, then hubs): the
// records the bucket emits, as dense IDs are one per community. It stamps
// each head's entry of the accumulator's weight column with stamp, which
// must differ from every stamp already there; the caller clears the column
// before the accumulator sums again.
//
//perf:noalloc
func (s *stage) countHeads(stamp int64, srcs []int32) int {
	n := 0
	for _, i := range srcs {
		for _, a := range s.srcAdj(i) {
			if c := s.comm[a.To]; s.acc.w[c] != stamp {
				s.acc.w[c] = stamp
				n++
			}
		}
	}
	return n
}

// sumBucket sums the arcs of one bucket's sources per head coarse vertex cv
// in the accumulator and writes the bucket's records — cu, each distinct cv
// ascending, its summed weight — to x, y, w from pos on. It returns the
// position after the last record. The sums are exact integers, so the order
// the arcs are added in cannot show.
//
//perf:noalloc
func (s *stage) sumBucket(cu int32, srcs []int32, x, y []int32, w []int64, pos int) int {
	acc := s.acc
	acc.reset()
	for _, i := range srcs {
		for _, a := range s.srcAdj(i) {
			acc.add(int(s.dense[s.comm[a.To]]), a.W)
		}
	}
	sort.Ints(acc.keys)
	for _, cv := range acc.keys {
		x[pos], y[pos], w[pos] = cu, int32(cv), acc.w[cv]
		pos++
	}
	return pos
}

// srcAdj returns the arcs of merge source i: owned vertex i, or hub
// i − len(Owned).
func (s *stage) srcAdj(i int32) []partition.Arc {
	if n := int32(len(s.sg.Owned)); i >= n {
		return s.sg.AdjHub[i-n]
	}
	return s.sg.AdjOwned[i]
}

// foldRuns sums each run of equal (x, y) records into one record, range by
// range and in place: off holds the record ranges on entry and the folded
// ranges on return. It returns the folded record count.
//
//perf:noalloc
func foldRuns(x, y []int32, w []int64, off []int) int {
	out := 0
	for r := 0; r+1 < len(off); r++ {
		lo, hi := off[r], off[r+1]
		off[r] = out
		for i := lo; i < hi; {
			kx, ky := x[i], y[i]
			var sum int64
			for ; i < hi && x[i] == kx && y[i] == ky; i++ {
				sum += w[i]
			}
			x[out], y[out], w[out] = kx, ky, sum
			out++
		}
	}
	off[len(off)-1] = out
	return out
}

// resolveQueries maps each query x to lookup(x) evaluated on the rank that
// owns x, via a request/reply all-to-all exchange. Every query must lie in
// [0, n). Each owner is asked once per distinct id, ids ascending: the
// queries are deduplicated through the n-length slot table rqSlot (0 = not
// asked, then 1 = asked, then answer+1 once the reply lands), and only the
// distinct ids are reset on the way out, so a call costs
// O(queries + d log d) for d distinct ids, never O(n) — an update batch's
// lookup stays O(batch). The result is then filled per query position.
//
// Request frame: a uvarint count, then each id as its stride-delta from
// the previous one — its row id/p minus the previous row, the first from
// row −1 — so every delta is > 0. Reply frame: one zigzag varint per id
// asked, its answer's difference from the previous answer (the first from
// 0). Dense IDs ascend with the owned communities and a frozen singleton
// keeps its own id, so the merge's replies and most re-points cost about
// one byte each.
//
// Both legs stream: each request frame is answered as it arrives (the
// reply for source r depends only on r's frame), and each reply is
// scattered into the slot table as it lands (each owner's ids are its
// own), so all decode/encode work overlaps in-flight traffic. The routing
// slices, the slot table and both legs' encode buffers are pooled on the
// stage, and the answers land in dst (grown when short; it may be queries
// itself), so repeated calls (two per merge level, one per update batch, two
// per install) need allocate nothing.
//
// Both legs come from peers and are checked: a request row must be below
// the receiver's slot count and strictly follow the previous one, and a
// reply must hold one answer in [0, bound) per id asked of its sender and
// nothing after it.
func (s *stage) resolveQueries(dst, queries []int, bound int, lookup func(int) int) ([]int, error) {
	defer s.charge(exLookups, s.bytesSent())
	for r := 0; r < s.p; r++ {
		s.rqReqs[r] = s.rqReqs[r][:0]
	}
	for _, x := range queries {
		if s.rqSlot[x] == 0 {
			s.rqSlot[x] = 1
			o := partition.Owner(x, s.p)
			s.rqReqs[o] = append(s.rqReqs[o], x)
		}
	}
	defer func() {
		for _, ids := range s.rqReqs {
			for _, x := range ids {
				s.rqSlot[x] = 0
			}
		}
	}()
	out := s.sendScratch()
	for r := 0; r < s.p; r++ {
		ids := s.rqReqs[r]
		slices.Sort(ids)
		b := s.sendBufs[r]
		b.PutUvarint(uint64(len(ids)))
		prev := r - s.p
		for _, x := range ids {
			b.PutStrideDelta(prev, x, s.p)
			prev = x
		}
		out[r] = b.Bytes()
	}
	// Replies stream into their own buffer set: the request frames in
	// sendBufs must stay intact while the first leg is still in flight.
	for r := 0; r < s.p; r++ {
		s.rqBufs[r].Reset()
		s.rqFrames[r] = nil
	}
	err := comm.AlltoallvFunc(s.c, out, func(src int, payload []byte) error {
		var rd wire.Reader
		rd.Reset(payload)
		k := rd.Uvarint()
		if rd.Err() != nil {
			return frameErr(s.rnk, "resolve request", src, rd.Err())
		}
		b := s.rqBufs[src]
		x, prevAns := s.rnk-s.p, 0
		for ; k > 0; k-- {
			if x = rd.StrideDelta(x, s.p, s.n); rd.Err() != nil {
				return frameErr(s.rnk, "resolve request", src, rd.Err())
			}
			a := lookup(x)
			b.PutVarint(int64(a - prevAns))
			prevAns = a
		}
		if rd.Remaining() != 0 {
			return frameErr(s.rnk, "resolve request", src, errLongFrame)
		}
		s.rqFrames[src] = b.Bytes()
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = comm.AlltoallvFunc(s.c, s.rqFrames, func(src int, payload []byte) error {
		var rd wire.Reader
		rd.Reset(payload)
		a := int64(0)
		for _, x := range s.rqReqs[src] {
			d := rd.Varint()
			if rd.Err() != nil || d < -a || d >= int64(bound)-a {
				return frameErr(s.rnk, "resolve reply", src, rd.Err())
			}
			a += d
			s.rqSlot[x] = int32(a) + 1
		}
		if rd.Remaining() != 0 {
			return frameErr(s.rnk, "resolve reply", src, errLongFrame)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := grow(dst, len(queries))
	for i, x := range queries {
		res[i] = int(s.rqSlot[x]) - 1
	}
	return res, nil
}
