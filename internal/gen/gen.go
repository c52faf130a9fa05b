// Package gen provides deterministic synthetic graph generators used as
// stand-ins for the paper's datasets: R-MAT (Graph500 parameters),
// Barabási–Albert preferential attachment, an LFR-style planted-partition
// benchmark with power-law degree and community-size distributions, the
// stochastic block model, Erdős–Rényi, and a ring-of-cliques (caveman)
// graph.
//
// Every generator takes an explicit seed and produces the same graph for the
// same (parameters, seed), which keeps all experiments reproducible.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// powerLawInts samples n integers from a discrete power law P(x) ∝ x^(-exp)
// on [lo, hi] by inverse-transform sampling of the continuous distribution.
func powerLawInts(rng *rand.Rand, n, lo, hi int, exp float64) []int {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	out := make([]int, n)
	// Inverse CDF of the continuous power law on [lo, hi+1).
	a := 1 - exp
	loA := math.Pow(float64(lo), a)
	hiA := math.Pow(float64(hi+1), a)
	for i := range out {
		u := rng.Float64()
		var x float64
		if math.Abs(a) < 1e-12 { // exp == 1: log-uniform
			x = float64(lo) * math.Exp(u*math.Log(float64(hi+1)/float64(lo)))
		} else {
			x = math.Pow(loA+u*(hiA-loA), 1/a)
		}
		v := int(x)
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		out[i] = v
	}
	return out
}

// RMATConfig parameterizes an R-MAT generator. The defaults (via
// Graph500RMAT) follow the Graph500 specification: A=0.57, B=0.19, C=0.19,
// D=0.05, edge factor 16.
type RMATConfig struct {
	Scale      int     // number of vertices is 2^Scale
	EdgeFactor int     // number of generated edges is EdgeFactor * 2^Scale
	A, B, C, D float64 // quadrant probabilities, summing to 1
	Seed       int64
}

// Graph500RMAT returns the Graph500 R-MAT configuration for a given scale.
func Graph500RMAT(scale int, seed int64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: seed}
}

// SetSkew re-derives the quadrant probabilities from a single skew knob:
// A = skew, and the remaining mass 1−skew is split over B, C, D in the
// Graph500 proportions (19 : 19 : 5), so skew = 0.57 reproduces the
// Graph500 parameters exactly. Larger skew concentrates edges on
// low-numbered vertices, fattening the degree tail — the controlled way to
// produce load-imbalanced inputs (see EXPERIMENTS.md).
func (c *RMATConfig) SetSkew(skew float64) error {
	if skew <= 0 || skew >= 1 {
		return fmt.Errorf("gen: RMAT skew = %g, want in (0,1)", skew)
	}
	rest := 1 - skew
	c.A = skew
	c.B = 19 * rest / 43
	c.C = 19 * rest / 43
	c.D = 5 * rest / 43
	return nil
}

// size checks cfg and returns its vertex count n and the number of edges
// e the draw loop makes. RMAT and StreamRMAT both start here.
func (cfg RMATConfig) size() (n int, e int64, err error) {
	if cfg.Scale < 0 || cfg.Scale > 30 {
		return 0, 0, fmt.Errorf("gen: RMAT scale %d out of range [0,30]", cfg.Scale)
	}
	if s := cfg.A + cfg.B + cfg.C + cfg.D; math.Abs(s-1) > 1e-9 {
		return 0, 0, fmt.Errorf("gen: RMAT quadrant probabilities sum to %g, want 1", s)
	}
	n = 1 << cfg.Scale
	return n, int64(cfg.EdgeFactor) * int64(n), nil
}

// draw is the R-MAT edge loop RMAT and StreamRMAT share, so one seed yields
// one edge sequence in RAM and on disk. Each of the e edges takes Scale
// quadrant choices, one rng.Float64 each, lowest bit first. A self-loop is
// dropped; every other edge, duplicates included, goes to emit in draw
// order, and emit's first error ends the loop.
func (cfg RMATConfig) draw(e int64, emit func(u, v int) error) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := int64(0); i < e; i++ {
		u, v := 0, 0
		for bit := 0; bit < cfg.Scale; bit++ {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// upper-left: no bits set
			case r < cfg.A+cfg.B:
				v |= 1 << bit
			case r < cfg.A+cfg.B+cfg.C:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		if err := emit(u, v); err != nil {
			return err
		}
	}
	return nil
}

// dedupKeys is R-MAT's one dedup rule: it sorts the 64-bit edge keys and
// drops repeats, returning the distinct keys ascending. Every kept edge
// has unit weight, so which copy of a duplicate survives is immaterial.
func dedupKeys(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
}

// RMAT generates a recursive-matrix scale-free graph. Self-loops are
// dropped; duplicate edges collapse into a single unit-weight edge. Each
// edge is kept as the key min<<32|max until dedupKeys has run.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	n, e, err := cfg.size()
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, 0, e)
	cfg.draw(e, func(u, v int) error {
		keys = append(keys, uint64(min(u, v))<<32|uint64(max(u, v)))
		return nil
	})
	keys = dedupKeys(keys)
	edges := make([]graph.Edge, len(keys))
	for i, k := range keys {
		edges[i] = graph.Edge{U: int(k >> 32), V: int(k & 0xffffffff), W: 1}
	}
	return graph.FromEdges(n, edges)
}

// BarabasiAlbert generates a preferential-attachment graph: starting from a
// clique of m+1 vertices, each new vertex attaches m edges to existing
// vertices chosen proportionally to their current degree.
func BarabasiAlbert(n, m int, seed int64) (*graph.Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("gen: BarabasiAlbert m = %d, want >= 1", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("gen: BarabasiAlbert n = %d too small for m = %d", n, m)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n*m)
	// repeated-nodes list: vertex appears once per incident edge endpoint
	repeated := make([]int32, 0, 2*n*m)
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
			repeated = append(repeated, int32(u), int32(v))
		}
	}
	// chosen is kept in draw order: its appends feed the repeated list the
	// next vertex draws from, so any other order (a map's) would make the
	// graph differ from run to run under one seed.
	chosen := make([]int, 0, m)
	for u := m + 1; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			v := int(repeated[rng.Intn(len(repeated))])
			if v == u || slices.Contains(chosen, v) {
				continue
			}
			chosen = append(chosen, v)
		}
		for _, v := range chosen {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
			repeated = append(repeated, int32(u), int32(v))
		}
	}
	return graph.FromEdges(n, edges)
}

// ErdosRenyi generates G(n, p) with unit weights.
func ErdosRenyi(n int, p float64, seed int64) (*graph.Graph, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: ErdosRenyi p = %g out of [0,1]", p)
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	// Geometric skipping for sparse p.
	if p > 0 {
		logq := math.Log(1 - p)
		if p == 1 {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					edges = append(edges, graph.Edge{U: u, V: v, W: 1})
				}
			}
			return graph.FromEdges(n, edges)
		}
		// iterate pairs in a flattened index with geometric gaps
		total := int64(n) * int64(n-1) / 2
		idx := int64(-1)
		for {
			gap := int64(math.Floor(math.Log(1-rng.Float64()) / logq))
			idx += 1 + gap
			if idx >= total {
				break
			}
			u, v := unflattenPair(idx, n)
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	return graph.FromEdges(n, edges)
}

// unflattenPair maps a linear index over {(u,v): 0<=u<v<n} back to (u, v).
func unflattenPair(idx int64, n int) (int, int) {
	u := 0
	rowLen := int64(n - 1)
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return u, u + 1 + int(idx)
}

// SBM generates a stochastic block model: blocks of the given sizes, with
// intra-block edge probability pin and inter-block probability pout. It
// returns the graph and the planted membership.
func SBM(sizes []int, pin, pout float64, seed int64) (*graph.Graph, graph.Membership, error) {
	n := 0
	for _, s := range sizes {
		if s <= 0 {
			return nil, nil, fmt.Errorf("gen: SBM block size %d, want > 0", s)
		}
		n += s
	}
	if pin < 0 || pin > 1 || pout < 0 || pout > 1 {
		return nil, nil, fmt.Errorf("gen: SBM probabilities (%g, %g) out of [0,1]", pin, pout)
	}
	member := make(graph.Membership, n)
	start := 0
	for b, s := range sizes {
		for i := 0; i < s; i++ {
			member[start+i] = b
		}
		start += s
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pout
			if member[u] == member[v] {
				p = pin
			}
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v, W: 1})
			}
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, nil, err
	}
	return g, member, nil
}

// Caveman generates a ring of cliques: `cliques` cliques of `size` vertices
// each, with one edge linking consecutive cliques into a ring. It returns
// the graph and the planted membership (one community per clique).
func Caveman(cliques, size int) (*graph.Graph, graph.Membership, error) {
	if cliques < 1 || size < 1 {
		return nil, nil, fmt.Errorf("gen: Caveman needs cliques >= 1 and size >= 1, got %d, %d", cliques, size)
	}
	n := cliques * size
	member := make(graph.Membership, n)
	var edges []graph.Edge
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			member[base+i] = c
			for j := i + 1; j < size; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
		if cliques > 1 {
			next := ((c + 1) % cliques) * size
			if c < cliques-1 || cliques > 2 {
				edges = append(edges, graph.Edge{U: base, V: next, W: 1})
			}
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, nil, err
	}
	return g, member, nil
}
