package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Membership assigns every vertex a community label. Labels are arbitrary
// non-negative integers; Normalize produces dense labels 0..K-1.
type Membership []int

// Normalize relabels communities to dense IDs 0..K-1 in order of first
// appearance and returns the number of communities K.
func (m Membership) Normalize() int {
	remap := make(map[int]int)
	for i, c := range m {
		id, ok := remap[c]
		if !ok {
			id = len(remap)
			remap[c] = id
		}
		m[i] = id
	}
	return len(remap)
}

// NumCommunities returns the number of distinct labels.
func (m Membership) NumCommunities() int {
	seen := make(map[int]struct{})
	for _, c := range m {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// Sizes returns a map label → number of member vertices.
func (m Membership) Sizes() map[int]int {
	s := make(map[int]int)
	for _, c := range m {
		s[c]++
	}
	return s
}

// WriteMembership writes m as "vertex community" lines, one per vertex in
// vertex order — the format cmd/dlouvain -o and cmd/gengraph -truth emit
// and ReadMembership reads back.
func WriteMembership(w io.Writer, m Membership) error {
	bw := bufio.NewWriter(w)
	for v, c := range m {
		fmt.Fprintf(bw, "%d %d\n", v, c) // a failed write sticks in bw; Flush reports it
	}
	return bw.Flush()
}

// ReadMembership parses "vertex community" lines, in any order, into a
// dense membership; blank lines are skipped. Every vertex 0..k-1 must be
// listed exactly once, where k is the number of non-blank lines, so a
// vertex id at or beyond k or a repeated vertex is an error. The membership
// is sized by k, never by the largest id in the input.
func ReadMembership(r io.Reader) (Membership, error) {
	type entry struct{ line, v, c int }
	var es []entry
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f, nf := splitFields(sc.Bytes())
		if nf == 0 {
			continue
		}
		if nf != 2 {
			return nil, fmt.Errorf("graph: membership line %d: want \"vertex community\", got %q", line, sc.Text())
		}
		v, err := atoiField(f[0])
		if err != nil || v < 0 {
			return nil, fmt.Errorf("graph: membership line %d: bad vertex %q", line, f[0])
		}
		c, err := atoiField(f[1])
		if err != nil {
			return nil, fmt.Errorf("graph: membership line %d: bad community %q", line, f[1])
		}
		es = append(es, entry{line, v, c})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m := make(Membership, len(es))
	seen := make([]bool, len(es))
	for _, e := range es {
		if e.v >= len(es) {
			return nil, fmt.Errorf("graph: membership line %d: vertex %d outside [0,%d), the number of entries", e.line, e.v, len(es))
		}
		if seen[e.v] {
			return nil, fmt.Errorf("graph: membership line %d: vertex %d listed twice", e.line, e.v)
		}
		seen[e.v], m[e.v] = true, e.c
	}
	return m, nil
}

// Modularity computes Newman's modularity Q of the membership on g:
//
//	Q = Σ_c [ in(c)/2m − (tot(c)/2m)² ]
//
// where in(c) sums the weights of arcs internal to c (self-loop arcs once,
// each internal undirected edge via its two arcs) and tot(c) = Σ_{u∈c} k(u).
func Modularity(g *Graph, m Membership) float64 {
	return ModularityResolution(g, m, 1)
}

// ModularityResolution computes the generalized (Reichardt–Bornholdt)
// modularity with resolution parameter γ:
//
//	Q_γ = Σ_c [ in(c)/2m − γ·(tot(c)/2m)² ]
//
// γ = 1 is standard modularity; γ > 1 favors more, smaller communities and
// γ < 1 fewer, larger ones.
func ModularityResolution(g *Graph, m Membership, gamma float64) float64 {
	if len(m) != g.NumVertices() {
		panic("graph: membership length does not match vertex count")
	}
	m2 := g.TotalWeight2()
	if m2 == 0 {
		return 0
	}
	in := make(map[int]float64)
	tot := make(map[int]float64)
	for u := 0; u < g.NumVertices(); u++ {
		cu := m[u]
		tot[cu] += g.WeightedDegree(u)
		lo, hi := g.ArcRange(u)
		for a := lo; a < hi; a++ {
			if m[g.ArcTarget(a)] == cu {
				in[cu] += g.ArcWeight(a)
			}
		}
	}
	// Sum in sorted label order so the floating-point result is
	// deterministic across runs (map iteration order is randomized).
	labels := make([]int, 0, len(tot))
	for c := range tot {
		labels = append(labels, c)
	}
	sort.Ints(labels)
	var q float64
	for _, c := range labels {
		t := tot[c]
		q += in[c]/m2 - gamma*(t/m2)*(t/m2)
	}
	return q
}
