// Package partition implements the graph partitioning strategies of the
// paper: plain 1D round-robin partitioning and the distributed delegate
// partitioning extended from Pearce et al.
//
// Delegate partitioning duplicates high-degree vertices ("hubs", degree >=
// DHigh) on every rank. Arcs whose source is a low-degree vertex go to the
// source's owner (so an owner always sees its vertex's complete adjacency);
// arcs whose source is a hub initially go to the target's owner and are then
// rebalanced freely across ranks until every rank holds ≈ |arcs|/p arcs.
//
// The package also produces the per-rank census (arc counts, ghost counts,
// workload imbalance W = max/avg − 1) that the paper reports in Figure 6.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
)

// Kind selects the partitioning strategy.
type Kind int

const (
	// Delegate duplicates hubs on all ranks and rebalances hub arcs,
	// following Pearce et al. as extended by the paper. It is the zero
	// value: the paper's method is the default everywhere.
	Delegate Kind = iota
	// OneD is round-robin 1D partitioning: vertex v and all its arcs are
	// owned by rank v mod p. This is the baseline the paper compares
	// against (Cheong-style distributed Louvain).
	OneD
)

func (k Kind) String() string {
	switch k {
	case OneD:
		return "1d"
	case Delegate:
		return "delegate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String for the two strategies.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Delegate, OneD} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown partitioning %q", s)
}

// Arc is one directed arc of a local subgraph, in global vertex IDs.
type Arc struct {
	To int
	W  float64
}

// Subgraph is the portion of the graph materialized on one rank.
//
// Owned lists the low-degree vertices owned by this rank (every global
// vertex that is not a hub appears in exactly one rank's Owned, including
// isolated vertices). Hubs lists all hub vertices; the list is identical on
// every rank, but AdjHub holds only this rank's share of each hub's arcs.
type Subgraph struct {
	Rank int
	P    int

	// GlobalVertices is the vertex count of the global graph this subgraph
	// was cut from (vertex IDs are < GlobalVertices).
	GlobalVertices int

	Owned    []int   // sorted global IDs of owned low-degree vertices
	AdjOwned [][]Arc // complete adjacency of each owned vertex

	Hubs    []int     // sorted global hub IDs (same on all ranks)
	HubWDeg []float64 // global weighted degree of each hub
	AdjHub  [][]Arc   // this rank's share of each hub's arcs

	Ghosts []int // sorted global IDs of non-local, non-hub arc targets

	// Subscribers maps an owned vertex to the set of other ranks holding it
	// as a ghost; the owner pushes community updates to these ranks.
	Subscribers map[int][]int

	// OwnedWDeg is the weighted degree of each owned vertex (parallel to
	// Owned). For owned vertices the local adjacency is complete, so this
	// equals the global weighted degree.
	OwnedWDeg []float64

	// TotalWeight2 is the global 2m, shared by all ranks.
	TotalWeight2 float64
}

// NumLocalArcs returns the number of arcs stored on this rank.
func (s *Subgraph) NumLocalArcs() int64 {
	var n int64
	for _, a := range s.AdjOwned {
		n += int64(len(a))
	}
	for _, a := range s.AdjHub {
		n += int64(len(a))
	}
	return n
}

// Options configures Build and BuildStreaming.
type Options struct {
	P     int  // number of ranks, >= 1
	Kind  Kind // OneD or Delegate
	DHigh int  // hub degree threshold; <= 0 means DHigh = P (the paper's setting)

	// Workers bounds the builder's intra-process parallelism: 0 picks a
	// host-sized count, 1 runs every chunk inline on the caller. Every
	// worker count produces a bit-identical Layout (chunk boundaries are a
	// pure function of the data and partial results combine in chunk
	// order; see internal/par).
	Workers int
}

// Layout is a full partitioning of a graph: one Subgraph per rank plus the
// global hub directory.
type Layout struct {
	P     int
	Kind  Kind
	DHigh int
	Hubs  []int
	Parts []*Subgraph
}

// Owner returns the owning rank of a low-degree (non-hub) vertex.
func Owner(v, p int) int { return v % p }

// hubArc is one arc of a hub vertex awaiting placement.
type hubArc struct {
	hub int // index into hubs
	to  int
	w   float64
}

// workers resolves Options.Workers: 0 picks a host-sized count.
func (o Options) workers() int {
	if o.Workers == 0 {
		return par.DefaultWorkers(1)
	}
	return o.Workers
}

// Build partitions g across opt.P ranks. An in-RAM Graph already carries
// its degrees and 2m, so Build goes straight to the emission pass over
// arc-balanced windows that alias the CSR. The Layout is bit-identical at
// every worker count and to BuildStreaming of the same graph.
func Build(g *graph.Graph, opt Options) (*Layout, error) {
	n := g.NumVertices()
	ws := g.Windows(par.NumChunks(n))
	readWindow := func(i int) (*graph.Window, error) { return ws[i], nil }
	return build(n, len(ws), readWindow, g.Degree, g.WeightedDegree, g.TotalWeight2(), opt)
}

// build is the one emission pass behind Build and BuildStreaming. Windows
// cover [0, n) as disjoint ascending vertex ranges; degree, wdeg and m2 are
// the global per-vertex arc counts, weighted degrees and 2m.
//
// Every vertex's arcs are emitted from its window: an owned vertex carries
// its complete adjacency to its round-robin owner; a hub arc (h, v) goes to
// the owner of its target (co-locating delegate and target), hub→hub arcs
// to a spill pool. One window is one ParFor chunk, and per-(window, rank)
// fragments concatenate in ascending window order — the serial
// ascending-vertex append order on every rank — so the Layout does not
// depend on the window count or the worker count. The spill-pool placement
// and the rebalance correction are inherently sequential greedy passes and
// stay serial.
func build(n, nWindows int, readWindow func(i int) (*graph.Window, error),
	degree func(u int) int, wdeg func(u int) float64, m2 float64, opt Options) (*Layout, error) {
	if opt.P < 1 {
		return nil, fmt.Errorf("partition: P = %d, want >= 1", opt.P)
	}
	dhigh := opt.DHigh
	if dhigh <= 0 {
		dhigh = opt.P
	}
	p := opt.P
	pool := par.NewPool(opt.workers())
	defer pool.Close()

	isHub := make([]bool, n)
	var hubs []int
	if opt.Kind == Delegate {
		hubs = findHubs(n, dhigh, degree, isHub, pool)
	}
	// hubIdx[u] is u's position in the hub directory, so the pass can route
	// a hub's arcs without a directory search per vertex.
	var hubIdx []int32
	if len(hubs) > 0 {
		hubIdx = make([]int32, n)
		for i, h := range hubs {
			hubIdx[h] = int32(i)
		}
	}

	parts := newParts(p, n, hubs, wdeg, pool)

	type ownedFrag struct {
		ids  []int
		wdeg []float64
		adj  [][]Arc
	}
	ownedFrags := make([]ownedFrag, nWindows*p)
	spillFrag := make([][]hubArc, nWindows)
	errs := make([]error, nWindows)
	pool.ParFor(nWindows, func(c, _ int) {
		w, err := readWindow(c)
		if err != nil {
			errs[c] = err
			return
		}
		of := ownedFrags[c*p : (c+1)*p]
		var sf []hubArc
		for u := w.Lo; u < w.Hi; u++ {
			ts, ws := w.Arcs(u)
			if isHub[u] {
				// A hub lies in exactly one window, so its AdjHub slot on
				// every rank is appended to by this chunk alone, in arc order.
				hid := int(hubIdx[u])
				for k := range ts {
					v := int(ts[k])
					if isHub[v] {
						sf = append(sf, hubArc{hub: hid, to: v, w: ws[k]})
						continue
					}
					sp := parts[Owner(v, p)]
					sp.AdjHub[hid] = append(sp.AdjHub[hid], Arc{To: v, W: ws[k]})
				}
				continue
			}
			f := &of[Owner(u, p)]
			f.ids = append(f.ids, u)
			f.wdeg = append(f.wdeg, wdeg(u))
			adj := make([]Arc, len(ts))
			for k := range ts {
				adj[k] = Arc{To: int(ts[k]), W: ws[k]}
			}
			f.adj = append(f.adj, adj)
		}
		spillFrag[c] = sf
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	pool.ParFor(p, func(r, _ int) {
		sp := parts[r]
		total := 0
		for c := 0; c < nWindows; c++ {
			total += len(ownedFrags[c*p+r].ids)
		}
		if total == 0 {
			return
		}
		sp.Owned = make([]int, 0, total)
		sp.OwnedWDeg = make([]float64, 0, total)
		sp.AdjOwned = make([][]Arc, 0, total)
		for c := 0; c < nWindows; c++ {
			f := &ownedFrags[c*p+r]
			sp.Owned = append(sp.Owned, f.ids...)
			sp.OwnedWDeg = append(sp.OwnedWDeg, f.wdeg...)
			sp.AdjOwned = append(sp.AdjOwned, f.adj...)
		}
	})

	if len(hubs) > 0 {
		placeHubArcs(parts, slices.Concat(spillFrag...))
	}

	finishLayout(parts, isHub, m2, pool)

	return &Layout{P: p, Kind: opt.Kind, DHigh: dhigh, Hubs: hubs, Parts: parts}, nil
}

// findHubs marks and lists the vertices with degree ≥ dhigh. Per-chunk
// lists concatenate in chunk order, so the directory is ascending exactly
// as a serial scan produces it.
func findHubs(n, dhigh int, degree func(u int) int, isHub []bool, pool *par.Pool) []int {
	ncV := par.NumChunks(n)
	frag := make([][]int, ncV)
	pool.ParFor(ncV, func(c, _ int) {
		lo, hi := par.ChunkSpan(n, ncV, c)
		var hs []int
		for u := lo; u < hi; u++ {
			if degree(u) >= dhigh {
				isHub[u] = true
				hs = append(hs, u)
			}
		}
		frag[c] = hs
	})
	return slices.Concat(frag...) // nil when there are no hubs
}

// newParts allocates the per-rank subgraphs with the shared hub directory
// and its weighted degrees (wdeg gives a vertex's global weighted degree).
func newParts(p, n int, hubs []int, wdeg func(u int) float64, pool *par.Pool) []*Subgraph {
	parts := make([]*Subgraph, p)
	pool.ParFor(p, func(r, _ int) {
		parts[r] = &Subgraph{
			Rank: r, P: p,
			GlobalVertices: n,
			Hubs:           hubs,
			Subscribers:    make(map[int][]int),
		}
		if len(hubs) > 0 {
			parts[r].HubWDeg = make([]float64, len(hubs))
			parts[r].AdjHub = make([][]Arc, len(hubs))
			for i, h := range hubs {
				parts[r].HubWDeg[i] = wdeg(h)
			}
		}
	})
	return parts
}

// placeHubArcs places the hub→hub spill pool on the least-loaded ranks in
// spill order, then runs the rebalance correction pass. Both passes are
// inherently sequential greedy loops and always run serially.
func placeHubArcs(parts []*Subgraph, spill []hubArc) {
	p := len(parts)
	loads := make([]int64, p)
	for r := 0; r < p; r++ {
		loads[r] = parts[r].NumLocalArcs()
	}
	for _, a := range spill {
		r := minLoadRank(loads)
		parts[r].AdjHub[a.hub] = append(parts[r].AdjHub[a.hub], Arc{To: a.to, W: a.w})
		loads[r]++
	}
	// Correction pass: move hub→low arcs from overloaded ranks to
	// underloaded ones until loads are within one arc of the average.
	rebalance(parts, loads)
}

// finishLayout runs ghost discovery and subscriber construction from the
// final arc placement; m2 is the graph's total weight 2m.
func finishLayout(parts []*Subgraph, isHub []bool, m2 float64, pool *par.Pool) {
	p := len(parts)
	// Ghost discovery from the final arc placement: each rank touches only
	// its own part, and the ghost list is sorted, so per-rank kernels are
	// independent and deterministic.
	pool.ParFor(p, func(r, _ int) {
		sp := parts[r]
		ghostSet := make(map[int]struct{})
		note := func(v int) {
			if isHub[v] || Owner(v, p) == r {
				return
			}
			ghostSet[v] = struct{}{}
		}
		for _, adj := range sp.AdjOwned {
			for _, a := range adj {
				note(a.To)
			}
		}
		for _, adj := range sp.AdjHub {
			for _, a := range adj {
				note(a.To)
			}
		}
		sp.Ghosts = make([]int, 0, len(ghostSet))
		for v := range ghostSet {
			sp.Ghosts = append(sp.Ghosts, v)
		}
		sort.Ints(sp.Ghosts)
		sp.TotalWeight2 = m2
	})

	// Subscriber lists cross rank boundaries (a ghost on rank r subscribes
	// r to the ghost's owner), so they are built serially from the sorted
	// ghost lists; the final sort makes the content order-independent.
	for r := 0; r < p; r++ {
		for _, v := range parts[r].Ghosts {
			owner := parts[Owner(v, p)]
			owner.Subscribers[v] = append(owner.Subscribers[v], r)
		}
	}
	for r := 0; r < p; r++ {
		for v := range parts[r].Subscribers {
			sort.Ints(parts[r].Subscribers[v])
		}
	}
}

func minLoadRank(loads []int64) int {
	best := 0
	for r := 1; r < len(loads); r++ {
		if loads[r] < loads[best] {
			best = r
		}
	}
	return best
}

// rebalance moves hub arcs from overloaded to underloaded ranks. Only arcs
// whose source is a hub may move (the source delegate exists everywhere).
func rebalance(parts []*Subgraph, loads []int64) {
	p := len(parts)
	var total int64
	for _, l := range loads {
		total += l
	}
	avg := total / int64(p)
	// Ranks with load > avg+1 donate hub arcs; ranks below avg receive.
	type donation struct {
		hub int
		a   Arc
	}
	var spare []donation
	for r := 0; r < p; r++ {
		sp := parts[r]
		for loads[r] > avg+1 {
			moved := false
			for hi := range sp.AdjHub {
				if len(sp.AdjHub[hi]) == 0 {
					continue
				}
				last := len(sp.AdjHub[hi]) - 1
				spare = append(spare, donation{hub: hi, a: sp.AdjHub[hi][last]})
				sp.AdjHub[hi] = sp.AdjHub[hi][:last]
				loads[r]--
				moved = true
				if loads[r] <= avg+1 {
					break
				}
			}
			if !moved {
				break // nothing left to donate on this rank
			}
		}
	}
	si := 0
	for r := 0; r < p && si < len(spare); r++ {
		for loads[r] < avg && si < len(spare) {
			d := spare[si]
			si++
			parts[r].AdjHub[d.hub] = append(parts[r].AdjHub[d.hub], d.a)
			loads[r]++
		}
	}
	// Any remainder goes to the least-loaded ranks.
	for ; si < len(spare); si++ {
		r := minLoadRank(loads)
		d := spare[si]
		parts[r].AdjHub[d.hub] = append(parts[r].AdjHub[d.hub], d.a)
		loads[r]++
	}
}

// Census reports the per-rank workload and communication measures of a
// layout, matching the paper's Figure 6.
type Census struct {
	ArcsPerRank   []int64
	GhostsPerRank []int
	HubCount      int
}

// Census computes the layout's census.
func (l *Layout) Census() Census {
	c := Census{
		ArcsPerRank:   make([]int64, l.P),
		GhostsPerRank: make([]int, l.P),
		HubCount:      len(l.Hubs),
	}
	for r, sp := range l.Parts {
		c.ArcsPerRank[r] = sp.NumLocalArcs()
		c.GhostsPerRank[r] = len(sp.Ghosts)
	}
	return c
}

// ImbalanceW returns the paper's workload imbalance measure
// W = |E_max| / |E_avg| − 1 over per-rank arc counts.
func (c Census) ImbalanceW() float64 {
	if len(c.ArcsPerRank) == 0 {
		return 0
	}
	var sum, maxv int64
	for _, a := range c.ArcsPerRank {
		sum += a
		if a > maxv {
			maxv = a
		}
	}
	if sum == 0 {
		return 0
	}
	avg := float64(sum) / float64(len(c.ArcsPerRank))
	return float64(maxv)/avg - 1
}

// MaxGhosts returns the maximum per-rank ghost count.
func (c Census) MaxGhosts() int {
	m := 0
	for _, g := range c.GhostsPerRank {
		if g > m {
			m = g
		}
	}
	return m
}

// TotalArcs returns the total arc count across ranks.
func (c Census) TotalArcs() int64 {
	var t int64
	for _, a := range c.ArcsPerRank {
		t += a
	}
	return t
}
