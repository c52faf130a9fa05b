// Package louvain implements the sequential Louvain community-detection
// algorithm of Blondel et al. It is the correctness and performance baseline
// the paper's distributed algorithm is measured against (Figures 5 and 9).
//
// The algorithm alternates two phases until modularity stops improving:
// local moving (greedily reassign each vertex to the neighboring community
// with the highest modularity gain) and aggregation (collapse each community
// into a single vertex of a coarser graph).
package louvain

import (
	"math"

	"repro/internal/graph"
)

// Options configures a run. The zero value is a sensible default.
type Options struct {
	// TrackTrace records modularity after every inner sweep of the first
	// level (used by the convergence experiment, Figure 5).
	TrackTrace bool
	// Resolution is the γ of generalized modularity; 0 or 1 is standard
	// modularity, larger values produce more, smaller communities.
	Resolution float64
}

// minGain is the modularity improvement a level must make for the run to
// aggregate and go on to the next level.
const minGain = 1e-6

// LevelStats describes one aggregation level of a run.
type LevelStats struct {
	Vertices   int     // vertices of the graph at this level
	InnerIters int     // local-moving sweeps performed
	Modularity float64 // modularity after the level
}

// Result is the outcome of a Louvain run.
type Result struct {
	// Membership maps each original vertex to its final community
	// (dense labels 0..K-1).
	Membership graph.Membership
	// Modularity is the final modularity on the original graph.
	Modularity float64
	// Levels holds per-level statistics.
	Levels []LevelStats
	// QTrace, if requested, is the modularity after each inner sweep of the
	// first level.
	QTrace []float64
}

// Run executes the sequential Louvain algorithm on g. Each level sweeps
// until no vertex moves, and levels go on until one gains less than
// minGain or merges nothing.
func Run(g *graph.Graph, opt Options) Result {
	if opt.Resolution <= 0 {
		opt.Resolution = 1
	}
	n := g.NumVertices()
	res := Result{Membership: make(graph.Membership, n)}
	for i := range res.Membership {
		res.Membership[i] = i
	}
	if n == 0 || g.TotalWeight2() == 0 {
		res.Membership.Normalize()
		return res
	}

	cur := g
	prevQ := math.Inf(-1)
	for level := 0; ; level++ {
		labels, iters, trace := localMoving(cur, opt)
		q := graph.ModularityResolution(cur, labels, opt.Resolution)
		if level == 0 && opt.TrackTrace {
			res.QTrace = trace
		}
		res.Levels = append(res.Levels, LevelStats{
			Vertices:   cur.NumVertices(),
			InnerIters: iters,
			Modularity: q,
		})
		if q-prevQ < minGain {
			break
		}
		prevQ = q
		// Flatten: original vertex → community at this level.
		k := labels.Normalize()
		for i := range res.Membership {
			res.Membership[i] = labels[res.Membership[i]]
		}
		if k == cur.NumVertices() {
			break // no merging happened; a further level cannot improve
		}
		cur = Aggregate(cur, labels, k)
	}
	res.Membership.Normalize()
	res.Modularity = graph.ModularityResolution(g, res.Membership, opt.Resolution)
	return res
}

// localMoving performs greedy local moving sweeps on g until no vertex
// moves. It returns the per-vertex community labels, the sweep count, and
// (when tracking) the post-sweep modularity trace.
func localMoving(g *graph.Graph, opt Options) (graph.Membership, int, []float64) {
	n := g.NumVertices()
	m2 := g.TotalWeight2()
	labels := make(graph.Membership, n)
	tot := make([]float64, n) // Σtot per community, indexed by label
	for u := 0; u < n; u++ {
		labels[u] = u
		tot[u] = g.WeightedDegree(u)
	}
	// Scratch for neighbor-community weights.
	nw := newNeighborWeights(n)

	var trace []float64
	iters := 0
	for {
		iters++
		moved := 0
		for u := 0; u < n; u++ {
			cu := labels[u]
			ku := g.WeightedDegree(u)
			nw.reset()
			lo, hi := g.ArcRange(u)
			for a := lo; a < hi; a++ {
				v := g.ArcTarget(a)
				if v == u {
					continue // self-loops do not contribute to w(u→c)
				}
				nw.add(labels[v], g.ArcWeight(a))
			}
			// Remove u from its community for the comparison.
			tot[cu] -= ku
			best := cu
			bestGain := nw.get(cu) - opt.Resolution*tot[cu]*ku/m2
			for _, c := range nw.touched {
				if c == cu {
					continue
				}
				gain := nw.get(c) - opt.Resolution*tot[c]*ku/m2
				if gain > bestGain+gainEps {
					best, bestGain = c, gain
				} else if gain > bestGain-gainEps && c < best {
					// Tie: prefer the smaller community label. This makes
					// the sweep deterministic and mirrors the minimum-label
					// rule of the parallel algorithm.
					best = c
				}
			}
			tot[best] += ku
			if best != cu {
				labels[u] = best
				moved++
			}
		}
		if opt.TrackTrace {
			trace = append(trace, graph.Modularity(g, labels))
		}
		if moved == 0 {
			break
		}
	}
	return labels, iters, trace
}

// gainEps is the tolerance for treating two modularity gains as equal.
const gainEps = 1e-12

// neighborWeights accumulates w(u→c) for the communities adjacent to the
// current vertex, with O(touched) reset.
type neighborWeights struct {
	w       []float64
	touched []int
	seen    []bool
}

func newNeighborWeights(n int) *neighborWeights {
	return &neighborWeights{w: make([]float64, n), seen: make([]bool, n)}
}

func (nw *neighborWeights) reset() {
	for _, c := range nw.touched {
		nw.w[c] = 0
		nw.seen[c] = false
	}
	nw.touched = nw.touched[:0]
}

func (nw *neighborWeights) add(c int, w float64) {
	if !nw.seen[c] {
		nw.seen[c] = true
		nw.touched = append(nw.touched, c)
	}
	nw.w[c] += w
}

func (nw *neighborWeights) get(c int) float64 { return nw.w[c] }

// Aggregate collapses each community of labels (dense 0..k-1) into a single
// vertex: arcs between communities are summed, and arcs internal to a
// community become its self-loop. By the repository's graph conventions the
// coarse graph preserves both 2m and the modularity of any refinement.
func Aggregate(g *graph.Graph, labels graph.Membership, k int) *graph.Graph {
	type key struct{ c, d int32 }
	acc := make(map[key]float64)
	for u := 0; u < g.NumVertices(); u++ {
		cu := int32(labels[u])
		lo, hi := g.ArcRange(u)
		for a := lo; a < hi; a++ {
			cv := int32(labels[g.ArcTarget(a)])
			acc[key{cu, cv}] += g.ArcWeight(a)
		}
	}
	targets := make([][]int32, k)
	weights := make([][]float64, k)
	for kk, w := range acc {
		targets[kk.c] = append(targets[kk.c], kk.d)
		weights[kk.c] = append(weights[kk.c], w)
	}
	ng, err := graph.FromArcLists(k, targets, weights)
	if err != nil {
		// labels out of range would be a programming error upstream
		panic("louvain: aggregate failed: " + err.Error())
	}
	return ng
}
