// Package partition implements the graph partitioning strategies of the
// paper: plain 1D round-robin partitioning and the distributed delegate
// partitioning extended from Pearce et al.
//
// Every Layout is in π-space (scramble.go): vertex u of the input is π(u)
// there, owned by rank π(u) mod p. Every part carries the Layout's one π
// and π⁻¹ table.
//
// Delegate partitioning duplicates high-degree vertices ("hubs", degree >=
// DHigh) on every rank. Arcs whose source is a low-degree vertex go to the
// source's owner (so an owner always sees its vertex's complete adjacency);
// arcs whose source is a hub initially go to the target's owner and are then
// rebalanced freely across ranks until every rank holds ≈ |arcs|/p arcs.
//
// A vertex is replicated only because 1D cannot balance its arcs, as in
// Pearce et al.: the default threshold (HubThreshold) is the highest one
// that keeps every rank's non-hub arcs within 10% of the mean, so a graph
// that 1D already balances gets no hubs.
//
// The package also produces the per-rank census (arc counts, ghost counts,
// workload imbalance W = max/avg − 1) that the paper reports in Figure 6.
package partition

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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
	// owned by rank π(v) mod p. This is the baseline the paper compares
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

// Arc is one directed arc of a local subgraph, in global π-space IDs, with
// its weight in fixed-point units (weight.go).
type Arc struct {
	To int
	W  int64
}

// Subgraph is the portion of the graph materialized on one rank.
//
// Every vertex ID in it is a π-space ID (scramble.go). Owned lists the
// low-degree vertices owned by this rank (every global vertex that is not a
// hub appears in exactly one rank's Owned, including isolated vertices).
// Hubs lists all hub vertices; the list is identical on every rank, but
// AdjHub holds only this rank's share of each hub's arcs.
type Subgraph struct {
	Rank int
	P    int

	// GlobalVertices is the vertex count of the global graph this subgraph
	// was cut from (vertex IDs are < GlobalVertices).
	GlobalVertices int

	// Pi maps an input vertex ID to its π-space ID and PiInv maps it back,
	// GlobalVertices entries each. Every part of one Layout reads the same
	// two tables, so they are never written; a merged level's subgraph has
	// neither.
	Pi, PiInv []int32

	Owned    []int   // sorted π-space IDs of owned low-degree vertices
	AdjOwned [][]Arc // complete adjacency of each owned vertex

	Hubs    []int   // sorted π-space hub IDs (same on all ranks)
	HubWDeg []int64 // global weighted degree of each hub (this part's own copy)
	AdjHub  [][]Arc // this rank's share of each hub's arcs

	Ghosts []int // sorted π-space IDs of non-local, non-hub arc targets

	// Subscribers maps an owned vertex to the set of other ranks holding it
	// as a ghost; the owner pushes community updates to these ranks.
	Subscribers map[int][]int

	// OwnedWDeg is the weighted degree of each owned vertex (parallel to
	// Owned). For owned vertices the local adjacency is complete, so this
	// equals the global weighted degree.
	OwnedWDeg []int64

	// TotalWeight2 is the global 2m, shared by all ranks.
	TotalWeight2 int64
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
	DHigh int  // hub degree threshold; <= 0 means the default, HubThreshold at a 10% slack
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

// Owner returns the rank that owns π-space vertex or community id in a
// world of p ranks. It is the one ownership rule: the partitioner deals
// non-hub vertices out by it, and the solver routes every frame by it — a
// community's id is a vertex id, and nothing moves either afterwards.
func Owner(id, p int) int { return id % p }

// hubArc is one arc of a hub vertex awaiting placement.
type hubArc struct {
	hub int // index into hubs
	to  int
	w   int64
}

// Build partitions g across opt.P ranks. An in-RAM Graph already carries
// its degrees, so Build goes straight to the emission pass over arc-balanced
// windows that alias the CSR. The Layout is bit-identical at every
// GOMAXPROCS and to BuildStreaming of the same graph.
func Build(g *graph.Graph, opt Options) (*Layout, error) {
	n := g.NumVertices()
	ws := g.Windows(par.NumChunks(n))
	readWindow := func(i int) (*graph.Window, error) { return ws[i], nil }
	return build(n, g.NumArcs(), len(ws), readWindow, g.Degree, opt)
}

// build is the one emission pass behind Build and BuildStreaming. Windows
// cover [0, n) as disjoint ascending vertex ranges; degree is the global
// per-vertex arc count and arcs their sum.
//
// It is the one place an unset threshold becomes a number: DHigh <= 0
// means HubThreshold at hubSlack — the highest threshold, at or above the
// floor max(P, 4·arcs/n), that keeps every rank's non-hub arcs within 10%
// of the mean; P when n = 0. The paper sets dhigh = p in a regime where p
// (thousands) far exceeds the average degree, so hubs are a thin tail; the
// rule keeps only the hubs 1D needs, and none at P = 1 or on a graph 1D
// already balances. The Layout records the threshold it used.
//
// The pass quantises every arc weight and sums the degrees and 2m from the
// quantised arcs, exactly; what the fixed point cannot carry fails with
// ErrWeight.
//
// Every vertex's arcs are emitted from its window: an owned vertex x
// carries its complete adjacency straight to slot x/p of its owner, whose
// hub slots are dropped afterwards; a hub arc (h, v) goes to the owner of
// its target (co-locating delegate and target), hub→hub arcs to a spill
// pool. One window is one par.For chunk and every slot has one writer, so
// the Layout depends on neither the window count nor GOMAXPROCS. The hub
// shares are then put in π-target order and the spill pool in (hub,
// π-target) order, so the greedy placement — the spill pool and the
// rebalance correction, serial passes both — reads the π-space graph
// alone, whatever order the input ids gave the arcs.
func build(n int, arcs int64, nWindows int, readWindow func(i int) (*graph.Window, error),
	degree func(u int) int, opt Options) (*Layout, error) {
	if opt.P < 1 {
		return nil, fmt.Errorf("partition: P = %d, want >= 1", opt.P)
	}
	p := opt.P
	pi, inv := scrambleTables(n)
	dhigh := opt.DHigh
	if dhigh <= 0 {
		dhigh = HubThreshold(p, pi, arcs, degree, hubSlack)
	}

	isHub := make([]bool, n) // by π-id
	var hubs []int
	if opt.Kind == Delegate {
		hubs = findHubs(n, dhigh, degree, pi, isHub)
	}
	// hubIdx[x] is π-id x's position in the hub directory, so the pass can
	// route a hub's arcs without a directory search per vertex.
	var hubIdx []int32
	if len(hubs) > 0 {
		hubIdx = make([]int32, n)
		for i, h := range hubs {
			hubIdx[h] = int32(i)
		}
	}

	// Each hub's degree comes from the one chunk that emits its arcs.
	hubW := make([]int64, len(hubs))
	wm2 := make([]int64, nWindows)
	parts := newParts(p, pi, inv, hubs)

	spillFrag := make([][]hubArc, nWindows)
	errs := make([]error, nWindows)
	par.For(nWindows, func(c int) {
		w, err := readWindow(c)
		if err != nil {
			errs[c] = err
			return
		}
		var sf []hubArc
		m2 := int64(0)    // the window's share of 2m: checked per arc, it bounds every k
		var scratch []Arc // a hub's arcs, before they are dealt to the ranks
		for u := w.Lo; u < w.Hi; u++ {
			x := int(pi[u])
			ts, ws := w.Arcs(u)
			var adj []Arc
			if isHub[x] {
				scratch = slices.Grow(scratch[:0], len(ts))[:len(ts)]
				adj = scratch
			} else {
				adj = make([]Arc, len(ts))
			}
			k := int64(0)
			for j := range ts {
				q, err := Quantise(ws[j])
				if err == nil {
					m2, err = addWeight(m2, q)
				}
				if err != nil {
					errs[c] = fmt.Errorf("partition: arc %d-%d: %w", u, ts[j], err)
					return
				}
				adj[j] = Arc{To: int(pi[ts[j]]), W: q}
				k += q
			}
			if isHub[x] {
				// A hub lies in exactly one window, so its AdjHub slot on
				// every rank is appended to by this chunk alone.
				hid := int(hubIdx[x])
				hubW[hid] = k
				for _, a := range adj {
					if isHub[a.To] {
						sf = append(sf, hubArc{hub: hid, to: a.To, w: a.W})
						continue
					}
					sp := parts[Owner(a.To, p)]
					sp.AdjHub[hid] = append(sp.AdjHub[hid], a)
				}
				continue
			}
			sp := parts[Owner(x, p)]
			sp.OwnedWDeg[x/p], sp.AdjOwned[x/p] = k, adj
		}
		wm2[c] = m2
		spillFrag[c] = sf
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Drop the hubs' slots: what is left is ascending in π-id.
	par.For(p, func(r int) {
		sp := parts[r]
		sp.Owned = make([]int, 0, len(sp.AdjOwned))
		j := 0
		for i := range sp.AdjOwned {
			if x := r + i*p; !isHub[x] {
				sp.Owned = append(sp.Owned, x)
				sp.OwnedWDeg[j], sp.AdjOwned[j] = sp.OwnedWDeg[i], sp.AdjOwned[i]
				j++
			}
		}
		sp.OwnedWDeg, sp.AdjOwned = sp.OwnedWDeg[:j], sp.AdjOwned[:j]
	})

	// 2m sums exact degrees, so the order is immaterial.
	var m2 int64
	var err error
	for _, x := range wm2 {
		if m2, err = addWeight(m2, x); err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
	}

	if len(hubs) > 0 {
		// Every part gets its own copy of the hub degrees: a serving
		// Session adjusts its part's table in place.
		for _, sp := range parts {
			sp.HubWDeg = slices.Clone(hubW)
			for _, adj := range sp.AdjHub {
				slices.SortFunc(adj, func(a, b Arc) int { return a.To - b.To })
			}
		}
		spill := slices.Concat(spillFrag...)
		slices.SortFunc(spill, func(a, b hubArc) int { return cmp.Or(a.hub-b.hub, a.to-b.to) })
		placeHubArcs(parts, spill)
	}

	finishLayout(parts, isHub, m2)

	return &Layout{P: p, Kind: opt.Kind, DHigh: dhigh, Hubs: hubs, Parts: parts}, nil
}

// hubSlack is how far over the mean arc load, as a fraction of it, the
// default hub threshold lets a rank's non-hub arcs reach: ε in HubThreshold.
// cmd/experiments -only hubs measured the choice (docs/PERFORMANCE.md).
const hubSlack = 0.1

// HubThreshold returns the hub threshold an unset DHigh means for a world of
// p ranks and a graph whose π table is pi (one entry per vertex, n in all)
// and whose degree sum is arcs: the largest d at or above the floor
// f = max(p, 4·arcs/n) (p when n = 0) at which no rank's non-hub arcs
// exceed (1 + slack)·arcs/p. A non-hub vertex u's arcs count at its owner,
// Owner(π(u), p); hub arcs fill the ranks below the mean, which is what
// placeHubArcs and rebalance do with them.
// When 1D is already that balanced the threshold is one past the largest
// degree (at least f), so no vertex is a hub; at p = 1 that is always so.
//
// Only vertices of degree ≥ f can become hubs, so the sweep sorts just that
// tail, descending, and delegates it one degree class at a time until every
// rank is within the bound; the first class that gets there sets the
// threshold, and when none does it is f. The rule reads only degree, so
// Build and BuildStreaming reach the same threshold.
func HubThreshold(p int, pi []int32, arcs int64, degree func(u int) int, slack float64) int {
	n := len(pi)
	if n == 0 {
		return p
	}
	floor := max(p, 4*int(arcs)/n)

	type tailVertex struct{ deg, owner int }
	ncV := par.NumChunks(n)
	loadFrag := make([][]int64, ncV)
	tailFrag := make([][]tailVertex, ncV)
	par.For(ncV, func(c int) {
		lo, hi := par.ChunkSpan(n, ncV, c)
		loads := make([]int64, p)
		var tail []tailVertex
		for u := lo; u < hi; u++ {
			d, r := degree(u), Owner(int(pi[u]), p)
			loads[r] += int64(d)
			if d >= floor {
				tail = append(tail, tailVertex{d, r})
			}
		}
		loadFrag[c], tailFrag[c] = loads, tail
	})
	loads := make([]int64, p)
	for _, ls := range loadFrag {
		for r, l := range ls {
			loads[r] += l
		}
	}
	tail := slices.Concat(tailFrag...)
	slices.SortFunc(tail, func(a, b tailVertex) int { return b.deg - a.deg })

	limit := (1 + slack) * float64(arcs) / float64(p)
	over := 0 // ranks whose non-hub load exceeds limit
	for _, l := range loads {
		if float64(l) > limit {
			over++
		}
	}
	if over == 0 {
		if len(tail) == 0 {
			return floor
		}
		return tail[0].deg + 1
	}
	for i := 0; i < len(tail); {
		d := tail[i].deg
		for ; i < len(tail) && tail[i].deg == d; i++ {
			r := tail[i].owner
			was := float64(loads[r]) > limit
			loads[r] -= int64(d)
			if was && float64(loads[r]) <= limit {
				over--
			}
		}
		if over == 0 {
			return d
		}
	}
	return floor
}

// findHubs lists, ascending, the π-ids of the vertices with degree ≥ dhigh
// and marks them in isHub.
func findHubs(n, dhigh int, degree func(u int) int, pi []int32, isHub []bool) []int {
	ncV := par.NumChunks(n)
	frag := make([][]int, ncV)
	par.For(ncV, func(c int) {
		lo, hi := par.ChunkSpan(n, ncV, c)
		var hs []int
		for u := lo; u < hi; u++ {
			if degree(u) >= dhigh {
				hs = append(hs, int(pi[u]))
			}
		}
		frag[c] = hs
	})
	hubs := slices.Concat(frag...) // nil when there are no hubs
	slices.Sort(hubs)
	for _, h := range hubs {
		isHub[h] = true
	}
	return hubs
}

// newParts allocates the per-rank subgraphs with the shared π tables and
// hub directory, an empty share of every hub's arcs and one owned slot per
// π-id the rank owns.
func newParts(p int, pi, inv []int32, hubs []int) []*Subgraph {
	n := len(pi)
	parts := make([]*Subgraph, p)
	par.For(p, func(r int) {
		parts[r] = &Subgraph{
			Rank: r, P: p, Pi: pi, PiInv: inv,
			GlobalVertices: n,
			Hubs:           hubs,
			Subscribers:    make(map[int][]int),
			OwnedWDeg:      make([]int64, (n-r+p-1)/p),
			AdjOwned:       make([][]Arc, (n-r+p-1)/p),
		}
		if len(hubs) > 0 {
			parts[r].AdjHub = make([][]Arc, len(hubs))
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
func finishLayout(parts []*Subgraph, isHub []bool, m2 int64) {
	p := len(parts)
	// Ghost discovery from the final arc placement: each rank touches only
	// its own part and reads its ghost set out in ascending order, so
	// per-rank kernels are independent and deterministic.
	n := len(isHub)
	par.For(p, func(r int) {
		sp := parts[r]
		seen := make([]uint64, (n+63)/64) // one bit per vertex: an n-bit ghost set
		note := func(v int) {
			// π scatters the targets, so read isHub only when it can hold one.
			if Owner(v, p) == r || len(sp.Hubs) > 0 && isHub[v] {
				return
			}
			seen[v/64] |= 1 << (v % 64)
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
		count := 0
		for _, b := range seen {
			count += bits.OnesCount64(b)
		}
		sp.Ghosts = make([]int, 0, count)
		for i, b := range seen {
			for ; b != 0; b &= b - 1 {
				sp.Ghosts = append(sp.Ghosts, i*64+bits.TrailingZeros64(b))
			}
		}
		sp.TotalWeight2 = m2
	})

	// Subscriber lists cross rank boundaries (a ghost on rank r subscribes
	// r to the ghost's owner), so they are built serially; walking r in
	// ascending order leaves every list ascending.
	for r := 0; r < p; r++ {
		for _, v := range parts[r].Ghosts {
			owner := parts[Owner(v, p)]
			owner.Subscribers[v] = append(owner.Subscribers[v], r)
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
	// A donor gives one arc per hub per pass, in ascending hub order, from
	// the hubs that still hold arcs on it; live is that list, compacted as
	// hubs run dry, so a pass never revisits an empty slot.
	var spare []donation
	var live []int
	for r := 0; r < p; r++ {
		sp := parts[r]
		if loads[r] <= avg+1 {
			continue
		}
		live = live[:0]
		for hi, adj := range sp.AdjHub {
			if len(adj) > 0 {
				live = append(live, hi)
			}
		}
		for len(live) > 0 && loads[r] > avg+1 {
			keep := live[:0]
			for _, hi := range live {
				if loads[r] <= avg+1 {
					break
				}
				adj := sp.AdjHub[hi]
				last := len(adj) - 1
				spare = append(spare, donation{hub: hi, a: adj[last]})
				sp.AdjHub[hi] = adj[:last]
				loads[r]--
				if last > 0 {
					keep = append(keep, hi)
				}
			}
			live = keep
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
