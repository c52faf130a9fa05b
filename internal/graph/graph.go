// Package graph provides a compact weighted undirected graph in compressed
// sparse row (CSR) form, plus builders, statistics, and serialization.
//
// Conventions used across the repository:
//
//   - Vertices are dense integers 0..N-1.
//   - An undirected edge {u,v} with u != v is stored as two arcs (u,v) and
//     (v,u), each carrying the full edge weight.
//   - A self-loop {u,u} is stored as a single arc (u,u); its weight counts
//     once toward the weighted degree k(u).
//   - The total graph weight is expressed as 2m = Σᵤ k(u).
//
// These conventions make modularity bookkeeping exact when communities are
// merged into coarser graphs: internal edges of a community become a single
// self-loop whose weight is the sum of the internal arc weights.
package graph

import (
	"fmt"
	"sort"
)

// Edge is one undirected edge of an edge list. Endpoints are vertex IDs;
// W is the edge weight (1 for unweighted graphs).
type Edge struct {
	U, V int
	W    float64
}

// Graph is an immutable weighted undirected graph in CSR form.
type Graph struct {
	offsets []int64   // len n+1; arc range of vertex u is [offsets[u], offsets[u+1])
	targets []int32   // arc targets
	weights []float64 // arc weights
	wdeg    []float64 // cached weighted degrees
	m2      float64   // 2m = Σ wdeg
	loops   int64     // cached self-loop arc count
}

// NumVertices returns the number of vertices N.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumArcs returns the number of stored arcs (2·edges + self-loops).
func (g *Graph) NumArcs() int64 { return g.offsets[len(g.offsets)-1] }

// NumEdges returns the number of undirected edges, counting self-loops once.
// The self-loop count is cached at build time, so this is O(1) — it is
// called from the partition census, stats printing, and tests on every run.
func (g *Graph) NumEdges() int64 {
	return (g.NumArcs()-g.loops)/2 + g.loops
}

// ArcRange returns the half-open arc index range [lo, hi) of vertex u.
func (g *Graph) ArcRange(u int) (lo, hi int64) {
	return g.offsets[u], g.offsets[u+1]
}

// ArcTarget returns the target vertex of arc a.
func (g *Graph) ArcTarget(a int64) int { return int(g.targets[a]) }

// ArcWeight returns the weight of arc a.
func (g *Graph) ArcWeight(a int64) float64 { return g.weights[a] }

// Neighbors returns the targets and weights of u's arcs. The returned slices
// alias the graph's storage and must not be modified.
func (g *Graph) Neighbors(u int) ([]int32, []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// Degree returns the number of arcs of u (self-loops count once).
func (g *Graph) Degree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// WeightedDegree returns k(u), the sum of u's arc weights.
func (g *Graph) WeightedDegree(u int) float64 { return g.wdeg[u] }

// TotalWeight2 returns 2m = Σᵤ k(u).
func (g *Graph) TotalWeight2() float64 { return g.m2 }

// SelfLoopWeight returns the total weight of self-loop arcs at u.
func (g *Graph) SelfLoopWeight(u int) float64 {
	var s float64
	lo, hi := g.offsets[u], g.offsets[u+1]
	for a := lo; a < hi; a++ {
		if int(g.targets[a]) == u {
			s += g.weights[a]
		}
	}
	return s
}

// MaxDegree returns the maximum arc count over all vertices (0 for an empty
// graph).
func (g *Graph) MaxDegree() int {
	maxd := 0
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.Degree(u); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Edges materializes the undirected edge list (u <= v once per edge).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumArcs()/2)
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for a := lo; a < hi; a++ {
			v := int(g.targets[a])
			if u <= v {
				es = append(es, Edge{U: u, V: v, W: g.weights[a]})
			}
		}
	}
	return es
}

// Validate checks structural invariants: monotone offsets, in-range targets,
// symmetric arcs (every (u,v) arc with u != v has a matching (v,u) arc of
// equal weight), and non-negative weights. It is O(arcs · log(deg)).
func (g *Graph) Validate() error {
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", u)
		}
	}
	for u := 0; u < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for a := lo; a < hi; a++ {
			v := int(g.targets[a])
			if v < 0 || v >= n {
				return fmt.Errorf("graph: arc (%d,%d) target out of range [0,%d)", u, v, n)
			}
			if g.weights[a] < 0 {
				return fmt.Errorf("graph: arc (%d,%d) has negative weight %g", u, v, g.weights[a])
			}
			if v == u {
				continue
			}
			if !g.hasArc(v, u, g.weights[a]) {
				return fmt.Errorf("graph: arc (%d,%d) w=%g has no symmetric counterpart", u, v, g.weights[a])
			}
		}
	}
	return nil
}

// hasArc reports whether an arc (u,v) with weight w exists. Targets within a
// vertex are sorted by the builder, so binary search applies.
func (g *Graph) hasArc(u, v int, w float64) bool {
	lo, hi := g.offsets[u], g.offsets[u+1]
	ts := g.targets[lo:hi]
	i := sort.Search(len(ts), func(i int) bool { return int(ts[i]) >= v })
	for ; i < len(ts) && int(ts[i]) == v; i++ {
		if g.weights[lo+int64(i)] == w {
			return true
		}
	}
	return false
}

// FromEdges builds a graph with n vertices from an undirected edge list.
// Each input edge {u,v}, u != v, yields the two symmetric arcs; self-loops
// yield one arc. Duplicate edges are combined by summing weights. Endpoints
// must lie in [0, n). A weight of 0 on input is treated as 1 (unweighted
// convenience). It is the counting-sort builder of ingest.go run inline;
// readers that hold a pool hand it to fromEdgesPool and get the same bytes.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	return fromEdgesPool(n, edges, nil)
}

// FromArcLists builds a graph directly from per-vertex arc lists. The caller
// asserts the lists are already symmetric (every (u,v) has its (v,u)); this
// is the fast path used by the distributed merge. Duplicate targets within a
// vertex are combined by summing weights.
func FromArcLists(n int, targets [][]int32, weights [][]float64) (*Graph, error) {
	if len(targets) != n || len(weights) != n {
		return nil, fmt.Errorf("graph: FromArcLists needs %d lists, got %d/%d", n, len(targets), len(weights))
	}
	offsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		if len(targets[u]) != len(weights[u]) {
			return nil, fmt.Errorf("graph: vertex %d targets/weights length mismatch", u)
		}
		offsets[u+1] = offsets[u] + int64(len(targets[u]))
	}
	flatT := make([]int32, offsets[n])
	flatW := make([]float64, offsets[n])
	for u := 0; u < n; u++ {
		copy(flatT[offsets[u]:], targets[u])
		copy(flatW[offsets[u]:], weights[u])
	}
	g := &Graph{offsets: offsets, targets: flatT, weights: flatW}
	g.sortAndCombine()
	finishPool(g, nil)
	return g, nil
}

// sortAndCombine sorts each vertex's arcs by target and merges arcs with the
// same target by summing weights (parallel edges collapse to one arc). Only
// FromArcLists needs it: its input is already grouped by source, so a sort
// per vertex is the whole job; edge lists go through fromEdgesPool.
func (g *Graph) sortAndCombine() {
	n := g.NumVertices()
	newOffsets := make([]int64, n+1)
	writeAt := int64(0)
	for u := 0; u < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		arcs := arcSorter{t: g.targets[lo:hi], w: g.weights[lo:hi]}
		// Stable: parallel edges must combine in input order on both
		// endpoints, or floating-point sums would break arc symmetry.
		sort.Stable(arcs)
		newOffsets[u] = writeAt
		// Combine duplicates in place, writing to the global write cursor.
		i := lo
		for i < hi {
			t := g.targets[i]
			w := g.weights[i]
			j := i + 1
			for j < hi && g.targets[j] == t {
				w += g.weights[j]
				j++
			}
			g.targets[writeAt] = t
			g.weights[writeAt] = w
			writeAt++
			i = j
		}
	}
	newOffsets[n] = writeAt
	g.offsets = newOffsets
	g.targets = g.targets[:writeAt]
	g.weights = g.weights[:writeAt]
}

// fromSortedCSR wraps already sorted-and-combined CSR arrays in a Graph.
// Callers assert monotone offsets and strictly increasing, in-range targets
// per vertex (the binary readers validate this while decoding).
func fromSortedCSR(offsets []int64, targets []int32, weights []float64) *Graph {
	g := &Graph{offsets: offsets, targets: targets, weights: weights}
	finishPool(g, nil)
	return g
}

type arcSorter struct {
	t []int32
	w []float64
}

func (s arcSorter) Len() int           { return len(s.t) }
func (s arcSorter) Less(i, j int) bool { return s.t[i] < s.t[j] }
func (s arcSorter) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}
