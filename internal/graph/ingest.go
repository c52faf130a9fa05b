package graph

// Ingest: the one edge-list parser and the one CSR builder. Each gives the
// same bytes on every pool, the nil pool (which runs inline) included:
//
//   - The text input is split at newline boundaries, so every chunk parses
//     whole lines with the one grammar (parseEdgeLine). Per-chunk edge
//     slices concatenate in chunk order, which is file order; the error on
//     the smallest line number wins and the "# vertices" declaration on the
//     greatest line number wins, so neither depends on where the cuts fall.
//
//   - The CSR builder is a two-pass stable counting sort over the arc
//     sequence (arcs in edge order, (u,v) before (v,u)): pass A scatters by
//     target, pass B by source. An LSD radix sort with stable passes yields
//     arcs grouped by source, sorted by target, ties in original sequence
//     order, so the duplicate-combine pass sums weights in input order on
//     both endpoints and arc symmetry survives floating point. Scatter
//     positions are integers fully determined by the global arc sequence,
//     so — unlike float reductions — the chunk count here may depend on the
//     worker count without breaking determinism. graph_test.go keeps the
//     per-vertex stable-sort builder this replaced as the oracle.
//
// Kernels never touch a communicator (ingest runs before any comm exists),
// keeping within the internal/par contract.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/par"
)

// histChunkCap caps the chunk count of the counting-sort passes: each chunk
// carries an n-sized histogram, so the scratch is histChunkCap·n ints at
// most no matter how many workers run.
const histChunkCap = 16

// ReadEdgeList parses the text format written by WriteEdgeList on up to
// workers goroutines (0 = host-sized). It also accepts headerless
// SNAP-style lists ("u v" or "u v w" per line, '#' comments); in that case
// the vertex count is 1 + the maximum endpoint. The graph, and the error on
// a malformed input, are the same at every worker count.
func ReadEdgeList(r io.Reader, workers int) (*Graph, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, err
	}
	pool := par.NewPool(resolveWorkers(workers))
	defer pool.Close()
	return parseEdgeList(data, pool, math.MaxInt32)
}

// readAllSized buffers the whole input, sizing the buffer up front when the
// reader can report its length (files, bytes.Readers) so a large edge list
// is read in one allocation instead of io.ReadAll's doubling growth.
func readAllSized(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if size, ok := inputSize(r); ok && size > 0 && size < math.MaxInt32 {
		buf.Grow(int(size) + 1) // +1 so ReadFrom's probe for EOF fits too
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// resolveWorkers maps the cmd-level -workers convention onto a pool size:
// 0 = host-sized (ingest is a host-global phase, so worldSize is 1).
func resolveWorkers(workers int) int {
	if workers == 0 {
		return par.DefaultWorkers(1)
	}
	return workers
}

// chunkParse is one chunk's parse result.
type chunkParse struct {
	edges    []Edge
	maxID    int
	declLine int // line number of the chunk's last "# vertices" line, 0 if none
	declN    int
	errLine  int // line number of the chunk's first error, 0 if none
	err      error
}

// parseEdgeList bounds the vertex-ID space at maxV. Arc targets are stored
// as int32, so IDs beyond that are corrupt by definition — and because a
// headerless list sizes the graph as 1 + max endpoint, a single hostile
// line like "99999999999999 0" would otherwise demand a maxID-sized
// allocation before any validation. The fuzz harness lowers the bound
// further to keep per-input allocations small.
func parseEdgeList(data []byte, pool *par.Pool, maxV int) (*Graph, error) {
	bounds := splitLines(data, pool.Workers()*4)
	nc := len(bounds) - 1

	// Line numbers: each chunk starts right after a newline, so the chunk's
	// first line number is 1 + the newlines before it.
	nlines := make([]int, nc)
	pool.ParFor(nc, func(c, _ int) {
		nlines[c] = bytes.Count(data[bounds[c]:bounds[c+1]], []byte{'\n'})
	})
	startLine := make([]int, nc)
	line := 1
	for c := 0; c < nc; c++ {
		startLine[c] = line
		line += nlines[c]
	}

	res := make([]chunkParse, nc)
	pool.ParFor(nc, func(c, _ int) {
		res[c] = parseChunk(data[bounds[c]:bounds[c+1]], startLine[c], maxV)
	})

	// Merge: the smallest-line error wins (the file's first), the
	// greatest-line declaration wins (its last), edges concatenate in chunk
	// order (its sequence).
	var firstErr error
	firstErrLine := 0
	declLine, declN := 0, -1
	maxID := -1
	total := 0
	for c := range res {
		r := &res[c]
		if r.err != nil && (firstErr == nil || r.errLine < firstErrLine) {
			firstErr, firstErrLine = r.err, r.errLine
		}
		if r.declLine > declLine {
			declLine, declN = r.declLine, r.declN
		}
		if r.maxID > maxID {
			maxID = r.maxID
		}
		total += len(r.edges)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	edges := make([]Edge, total)
	at := make([]int, nc)
	pos := 0
	for c := range res {
		at[c] = pos
		pos += len(res[c].edges)
	}
	pool.ParFor(nc, func(c, _ int) {
		copy(edges[at[c]:], res[c].edges)
	})
	n := declN
	if declLine == 0 {
		n = maxID + 1
	}
	return fromEdgesPool(n, edges, pool)
}

// splitLines returns nc+1 chunk boundaries over data, each boundary placed
// just after a newline so no chunk starts mid-line. Chunks may be empty when
// lines are long.
func splitLines(data []byte, want int) []int {
	if want < 1 {
		want = 1
	}
	if want > par.MaxChunks {
		want = par.MaxChunks
	}
	bounds := make([]int, want+1)
	bounds[want] = len(data)
	for c := 1; c < want; c++ {
		pos := c * len(data) / want
		if pos <= bounds[c-1] {
			bounds[c] = bounds[c-1]
			continue
		}
		if data[pos-1] == '\n' {
			bounds[c] = pos
			continue
		}
		for pos < len(data) && data[pos] != '\n' {
			pos++
		}
		if pos < len(data) {
			pos++
		}
		bounds[c] = pos
	}
	return bounds
}

// parseChunk parses whole lines from b (which starts at a line boundary)
// with the shared grammar. lineNo is the 1-based number of b's first line.
func parseChunk(b []byte, lineNo, maxV int) chunkParse {
	cp := chunkParse{maxID: -1}
	if est := len(b) / 12; est > 0 {
		cp.edges = make([]Edge, 0, est)
	}
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		var ln []byte
		if nl >= 0 {
			ln, b = b[:nl], b[nl+1:]
		} else {
			ln, b = b, nil
		}
		if len(ln) >= maxLineLen {
			cp.errLine, cp.err = lineNo, bufio.ErrTooLong
			return cp
		}
		e, kind, declared, err := parseEdgeLine(ln, lineNo, maxV)
		if err != nil {
			cp.errLine, cp.err = lineNo, err
			return cp
		}
		switch kind {
		case lineDecl:
			cp.declLine, cp.declN = lineNo, declared
		case lineEdge:
			if e.U > cp.maxID {
				cp.maxID = e.U
			}
			if e.V > cp.maxID {
				cp.maxID = e.V
			}
			cp.edges = append(cp.edges, e)
		}
		lineNo++
	}
	return cp
}

// fromEdgesPool is the counting-sort CSR builder. See the comment at the top
// of this file for the determinism argument.
func fromEdgesPool(n int, edges []Edge, pool *par.Pool) (*Graph, error) {
	nc := pool.Workers()
	if nc > histChunkCap {
		nc = histChunkCap
	}
	ne := len(edges)

	// Pass A histogram: validate endpoints and count arcs by target per
	// chunk. By symmetry the same totals serve as per-source degrees (arc
	// targets and arc sources are the same multiset), so one histogram feeds
	// both the CSR offsets and pass A's scatter positions. A chunk stops at
	// its first bad edge; the globally smallest index wins, so the error
	// names the list's first bad edge whatever the chunking.
	hist := make([]int64, nc*n)
	bad := make([]int, nc)
	pool.ParFor(nc, func(c, _ int) {
		h := hist[c*n : (c+1)*n]
		lo, hi := par.ChunkSpan(ne, nc, c)
		first := -1
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
				first = i
				break
			}
			h[e.V]++ // arc (U,V) targets V
			if e.V != e.U {
				h[e.U]++ // arc (V,U) targets U
			}
		}
		bad[c] = first
	})
	firstBad := -1
	for _, b := range bad {
		if b >= 0 && (firstBad < 0 || b < firstBad) {
			firstBad = b
		}
	}
	if firstBad >= 0 {
		e := edges[firstBad]
		return nil, fmt.Errorf("graph: edge (%d,%d) endpoint out of range [0,%d)", e.U, e.V, n)
	}

	// One fused serial sweep produces the CSR offsets (prefix over per-vertex
	// totals) and rewrites hist into exclusive scatter positions (chunk-major
	// within each target) — the layout a stable parallel scatter needs.
	offsets := make([]int64, n+1)
	var run int64
	for v := 0; v < n; v++ {
		offsets[v] = run
		for c := 0; c < nc; c++ {
			hist[c*n+v], run = run, run+hist[c*n+v]
		}
	}
	offsets[n] = run
	arcs := run

	// Pass A: stable scatter of the arc sequence by target.
	aSrc := make([]int32, arcs)
	aTgt := make([]int32, arcs)
	aW := make([]float64, arcs)
	pool.ParFor(nc, func(c, _ int) {
		pos := hist[c*n : (c+1)*n]
		lo, hi := par.ChunkSpan(ne, nc, c)
		for i := lo; i < hi; i++ {
			e := edges[i]
			w := e.W
			if w == 0 {
				w = 1
			}
			p := pos[e.V]
			pos[e.V] = p + 1
			aSrc[p] = int32(e.U)
			aTgt[p] = int32(e.V)
			aW[p] = w
			if e.V != e.U {
				p = pos[e.U]
				pos[e.U] = p + 1
				aSrc[p] = int32(e.V)
				aTgt[p] = int32(e.U)
				aW[p] = w
			}
		}
	})

	// Pass B: stable scatter by source. Stability over the pass-A order
	// leaves each vertex's arcs sorted by target with duplicates in input
	// order.
	targets := make([]int32, arcs)
	weights := make([]float64, arcs)
	for i := range hist {
		hist[i] = 0
	}
	na := int(arcs)
	pool.ParFor(nc, func(c, _ int) {
		h := hist[c*n : (c+1)*n]
		lo, hi := par.ChunkSpan(na, nc, c)
		for i := lo; i < hi; i++ {
			h[aSrc[i]]++
		}
	})
	histToOffsets(hist, offsets, nc, n, pool)
	pool.ParFor(nc, func(c, _ int) {
		pos := hist[c*n : (c+1)*n]
		lo, hi := par.ChunkSpan(na, nc, c)
		for i := lo; i < hi; i++ {
			s := aSrc[i]
			p := pos[s]
			pos[s] = p + 1
			targets[p] = aTgt[i]
			weights[p] = aW[i]
		}
	})

	// Combine duplicates per vertex, summing weights left to right. Most
	// graphs have none, in which case the pass-B arrays are already final.
	ncV := par.NumChunks(n)
	newDeg := make([]int64, n)
	pool.ParFor(ncV, func(cv, _ int) {
		lo, hi := par.ChunkSpan(n, ncV, cv)
		for u := lo; u < hi; u++ {
			var d int64
			for a, ahi := offsets[u], offsets[u+1]; a < ahi; d++ {
				t := targets[a]
				for a++; a < ahi && targets[a] == t; a++ {
				}
			}
			newDeg[u] = d
		}
	})
	newOffsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		newOffsets[u+1] = newOffsets[u] + newDeg[u]
	}
	g := &Graph{offsets: newOffsets, targets: targets, weights: weights}
	if newOffsets[n] != arcs {
		nt := make([]int32, newOffsets[n])
		nw := make([]float64, newOffsets[n])
		pool.ParFor(ncV, func(cv, _ int) {
			lo, hi := par.ChunkSpan(n, ncV, cv)
			for u := lo; u < hi; u++ {
				wr := newOffsets[u]
				for a, ahi := offsets[u], offsets[u+1]; a < ahi; {
					t := targets[a]
					w := weights[a]
					for a++; a < ahi && targets[a] == t; a++ {
						w += weights[a]
					}
					nt[wr] = t
					nw[wr] = w
					wr++
				}
			}
		})
		g.targets, g.weights = nt, nw
	}
	finishPool(g, pool)
	return g, nil
}

// histToOffsets converts per-chunk histograms into exclusive scatter
// offsets in place: the position of chunk c's first item with key v is
// base[v] + Σ_{c'<c} hist[c'][v]. Parallel over vertex ranges.
func histToOffsets(hist, base []int64, nc, n int, pool *par.Pool) {
	ncV := par.NumChunks(n)
	pool.ParFor(ncV, func(cv, _ int) {
		lo, hi := par.ChunkSpan(n, ncV, cv)
		for v := lo; v < hi; v++ {
			run := base[v]
			for c := 0; c < nc; c++ {
				hist[c*n+v], run = run, run+hist[c*n+v]
			}
		}
	})
}

// finishPool computes the wdeg/m2/loops caches with per-vertex scans. Each
// k(u) accumulates over u's own arcs in arc order and m2 sums wdeg serially
// in ascending u, so neither float depends on the pool.
func finishPool(g *Graph, pool *par.Pool) {
	n := g.NumVertices()
	g.wdeg = make([]float64, n)
	ncV := par.NumChunks(n)
	loopCnt := make([]int64, ncV)
	pool.ParFor(ncV, func(cv, _ int) {
		lo, hi := par.ChunkSpan(n, ncV, cv)
		var loops int64
		for u := lo; u < hi; u++ {
			var k float64
			for a, ahi := g.offsets[u], g.offsets[u+1]; a < ahi; a++ {
				k += g.weights[a]
				if int(g.targets[a]) == u {
					loops++
				}
			}
			g.wdeg[u] = k
		}
		loopCnt[cv] = loops
	})
	g.m2 = 0
	g.loops = 0
	for _, l := range loopCnt {
		g.loops += l
	}
	for u := 0; u < n; u++ {
		g.m2 += g.wdeg[u]
	}
}
