package graph

// Ingest: the one edge-list reader and the one CSR builder, both serial.
//
//   - The text input streams through a bufio.Scanner one line at a time,
//     each line parsed by the one grammar (parseEdgeLine). The first bad
//     line's error is returned and the last "# vertices" declaration wins.
//
//   - The CSR builder is a two-pass stable counting sort over the arc
//     sequence (arcs in edge order, (u,v) before (v,u)): pass A scatters by
//     target, pass B by source. An LSD radix sort with stable passes yields
//     arcs grouped by source, sorted by target, ties in original sequence
//     order, so the duplicate-combine pass sums weights in input order on
//     both endpoints and arc symmetry survives floating point.
//     graph_test.go keeps the per-vertex stable-sort builder this replaced
//     as the oracle.

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// ReadEdgeList parses the text format written by WriteEdgeList. It also
// accepts headerless SNAP-style lists ("u v" or "u v w" per line, '#'
// comments); in that case the vertex count is 1 + the maximum endpoint.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeList(r, math.MaxInt32)
}

// readEdgeList bounds the vertex-ID space at maxV. Arc targets are stored
// as int32, so IDs beyond that are corrupt by definition — and because a
// headerless list sizes the graph as 1 + max endpoint, a single hostile line
// like "99999999999999 0" would otherwise demand a maxID-sized allocation
// before any validation. The fuzz harness lowers the bound further to keep
// per-input allocations small.
func readEdgeList(r io.Reader, maxV int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	// A line needs its newline in the buffer too, so one of maxLineLen
	// bytes or more fails with bufio.ErrTooLong.
	sc.Buffer(make([]byte, 64<<10), maxLineLen)
	var edges []Edge
	maxID, declared := -1, -1
	for lineNo := 1; sc.Scan(); lineNo++ {
		e, kind, d, err := parseEdgeLine(sc.Bytes(), lineNo, maxV)
		if err != nil {
			return nil, err
		}
		switch kind {
		case lineDecl:
			declared = d
		case lineEdge:
			maxID = max(maxID, e.U, e.V)
			edges = append(edges, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	n := declared
	if n < 0 {
		n = maxID + 1
	}
	return FromEdges(n, edges)
}

// FromEdges builds a graph with n vertices from an undirected edge list.
// Each input edge {u,v}, u != v, yields the two symmetric arcs; self-loops
// yield one arc. Duplicate edges are combined by summing weights. Endpoints
// must lie in [0, n). A weight of 0 on input is treated as 1 (unweighted
// convenience). It is the counting-sort builder; see the comment at the top
// of this file for why its bytes equal the per-vertex stable sort's.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	// Pass A histogram: validate endpoints and count arcs by target. By
	// symmetry the same totals serve as per-source degrees (arc targets and
	// arc sources are the same multiset), so one histogram feeds both the
	// CSR offsets and pass A's scatter positions.
	pos := make([]int64, n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) endpoint out of range [0,%d)", e.U, e.V, n)
		}
		pos[e.V]++ // arc (U,V) targets V
		if e.V != e.U {
			pos[e.U]++ // arc (V,U) targets U
		}
	}

	// One sweep produces the CSR offsets (prefix over per-vertex totals) and
	// rewrites pos into exclusive scatter positions.
	offsets := make([]int64, n+1)
	var run int64
	for v := 0; v < n; v++ {
		offsets[v] = run
		pos[v], run = run, run+pos[v]
	}
	offsets[n] = run
	arcs := run

	// Pass A: stable scatter of the arc sequence by target.
	aSrc := make([]int32, arcs)
	aTgt := make([]int32, arcs)
	aW := make([]float64, arcs)
	for _, e := range edges {
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

	// Pass B: stable scatter by source, starting at each vertex's offset.
	// Stability over the pass-A order leaves each vertex's arcs sorted by
	// target with duplicates in input order.
	targets := make([]int32, arcs)
	weights := make([]float64, arcs)
	copy(pos, offsets[:n])
	for i, s := range aSrc {
		p := pos[s]
		pos[s] = p + 1
		targets[p] = aTgt[i]
		weights[p] = aW[i]
	}

	// Combine duplicates per vertex, summing weights left to right. Most
	// graphs have none, in which case the pass-B arrays are already final.
	newOffsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		d := newOffsets[u]
		for a, ahi := offsets[u], offsets[u+1]; a < ahi; d++ {
			t := targets[a]
			for a++; a < ahi && targets[a] == t; a++ {
			}
		}
		newOffsets[u+1] = d
	}
	if newOffsets[n] != arcs {
		nt := make([]int32, newOffsets[n])
		nw := make([]float64, newOffsets[n])
		wr := int64(0)
		for u := 0; u < n; u++ {
			for a, ahi := offsets[u], offsets[u+1]; a < ahi; wr++ {
				t := targets[a]
				w := weights[a]
				for a++; a < ahi && targets[a] == t; a++ {
					w += weights[a]
				}
				nt[wr] = t
				nw[wr] = w
			}
		}
		targets, weights = nt, nw
	}
	g := &Graph{offsets: newOffsets, targets: targets, weights: weights}
	finish(g)
	return g, nil
}

// finish computes the wdeg/m2/loops caches in one scan. Each k(u)
// accumulates over u's own arcs in arc order and m2 sums wdeg in ascending u.
func finish(g *Graph) {
	n := g.NumVertices()
	offsets, targets, weights := g.offsets, g.targets, g.weights
	wdeg := make([]float64, n)
	var m2 float64
	var loops int64
	for u := 0; u < n; u++ {
		var k float64
		for a, ahi := offsets[u], offsets[u+1]; a < ahi; a++ {
			k += weights[a]
			if int(targets[a]) == u {
				loops++
			}
		}
		wdeg[u] = k
		m2 += k
	}
	g.wdeg, g.m2, g.loops = wdeg, m2, loops
}
