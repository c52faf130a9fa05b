package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Tests of what the move rules promise about cross-rank moves: no two
// remote moves of one iteration trade a pair of communities both ways
// (the bouncing of the paper's Figure 3), and how many communities come
// back disconnected, the symptom bouncing leaves in the answer.

// move is one label change made in a stage-1 or coarse-level iteration:
// an owned vertex's sweep move, or a hub move its owner decided. remote
// says the target community is owned by another rank than the mover's.
type move struct {
	level, iter, rank int
	from, to          int32
	remote, hub       bool
}

// moveRecorder logs every move of a solve through testPushHook (labels
// before the sweep) and testIterHook (labels after the exchanges).
type moveRecorder struct {
	mu     sync.Mutex
	level  []int     // per rank: stages started so far
	before [][]int32 // per rank: owned then hub labels at the push
	moves  []move
}

func newMoveRecorder(t *testing.T, p int) *moveRecorder {
	r := &moveRecorder{level: make([]int, p), before: make([][]int32, p)}
	testPushHook = func(s *stage, iter int) error {
		if iter == 1 {
			r.level[s.rnk]++
		}
		b := r.before[s.rnk][:0]
		for _, vs := range [][]int{s.sg.Owned, s.sg.Hubs} {
			for _, v := range vs {
				b = append(b, s.comm[v])
			}
		}
		r.before[s.rnk] = b
		return nil
	}
	testIterHook = func(s *stage, iter int, q float64) error {
		var local []move
		i := 0
		for j, vs := range [][]int{s.sg.Owned, s.sg.Hubs} {
			for _, v := range vs {
				from, to := r.before[s.rnk][i], s.comm[v]
				i++
				// Every rank sees a hub move; its owner decided it.
				if from == to || !s.owns(v) {
					continue
				}
				local = append(local, move{r.level[s.rnk], iter, s.rnk, from, to, !s.owns(int(to)), j == 1})
			}
		}
		r.mu.Lock()
		r.moves = append(r.moves, local...)
		r.mu.Unlock()
		return nil
	}
	t.Cleanup(func() { testPushHook, testIterHook = nil, nil })
	return r
}

// bounces counts, over every iteration, the pairs of moves u: A → B and
// v: B → A made by different ranks. swept counts the pairs of two remote
// sweep moves, the bouncing allowMove's order forbids; hub the pairs of two
// remote moves of which at least one is a hub's; mixed the pairs with a
// local move.
func (r *moveRecorder) bounces() (swept, hub, mixed int64) {
	type key struct {
		level, iter int
		from, to    int32
	}
	const (
		remoteSweep = iota
		remoteHub
		local
	)
	// by[k][rank] counts the rank's moves along k by kind
	by := map[key]map[int]*[3]int64{}
	for _, m := range r.moves {
		k := key{m.level, m.iter, m.from, m.to}
		if by[k] == nil {
			by[k] = map[int]*[3]int64{}
		}
		if by[k][m.rank] == nil {
			by[k][m.rank] = new([3]int64)
		}
		switch {
		case !m.remote:
			by[k][m.rank][local]++
		case m.hub:
			by[k][m.rank][remoteHub]++
		default:
			by[k][m.rank][remoteSweep]++
		}
	}
	for k, fwd := range by {
		if k.from > k.to {
			continue // each unordered pair once
		}
		for r1, a := range fwd {
			for r2, b := range by[key{k.level, k.iter, k.to, k.from}] {
				if r1 == r2 {
					continue
				}
				swept += a[remoteSweep] * b[remoteSweep]
				hub += a[remoteHub]*(b[remoteSweep]+b[remoteHub]) + a[remoteSweep]*b[remoteHub]
				mixed += a[local]*(b[remoteSweep]+b[remoteHub]+b[local]) + (a[remoteSweep]+a[remoteHub])*b[local]
			}
		}
	}
	return swept, hub, mixed
}

// TestNoRemoteBounce proves the sized and enhanced rules' promise on an LFR
// and an R-MAT at P = 4 and 16: no iteration has two ranks trading a pair
// of communities by remote sweep moves both ways. The simple rule, which
// has no constraint, must show such pairs, or the fixtures prove nothing.
// Pairs with a local move are free under every rule (an on-rank move is
// unrestricted) and only logged. So are pairs with a hub move: hubs keep
// the label rule under every heuristic (decideHubs), so under sized a hub
// and a vertex can trade a pair both ways — twice on R-MAT at P = 16, the
// one fixture with hubs.
func TestNoRemoteBounce(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve solves of 16k–20k vertices under -short")
	}
	for _, spec := range []string{"lfr:n=20000,mu=0.3,seed=1", "rmat:scale=14,seed=1"} {
		g, _, err := gen.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{4, 16} {
			for _, h := range []Heuristic{HeuristicSized, HeuristicEnhanced, HeuristicSimple} {
				rec := newMoveRecorder(t, p)
				res, err := Run(g, Options{P: p, Heuristic: h})
				if err != nil {
					t.Fatal(err)
				}
				swept, hub, mixed := rec.bounces()
				name := fmt.Sprintf("%s P=%d %v", spec, p, h)
				t.Logf("%s: %d moves, %d hubs; pairs traded both ways: %d by remote sweep moves, %d with a remote hub move, %d with a local move; Q %.4f",
					name, len(rec.moves), res.HubCount, swept, hub, mixed, res.Modularity)
				if (h == HeuristicSimple) != (swept > 0) {
					t.Errorf("%s: %d pairs of remote sweep moves trade a pair of communities both ways", name, swept)
				}
			}
		}
	}
}

// connectivity counts the communities of m whose members do not form one
// connected piece over intra-community arcs, and the stray vertices: those
// outside their community's largest piece. A serial BFS per community.
func connectivity(g *graph.Graph, m graph.Membership) (disconnected, stray int) {
	n := g.NumVertices()
	piece := make([]int, n) // BFS piece id + 1; 0 = not reached yet
	size := map[int][]int{} // community → its pieces' sizes
	var queue []int
	for s := 0; s < n; s++ {
		if piece[s] != 0 {
			continue
		}
		id := s + 1
		piece[s] = id
		queue = append(queue[:0], s)
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			ts, _ := g.Neighbors(u)
			for _, v := range ts {
				if piece[v] == 0 && m[v] == m[u] {
					piece[v] = id
					queue = append(queue, int(v))
				}
			}
		}
		size[m[s]] = append(size[m[s]], len(queue))
	}
	for _, pieces := range size {
		if len(pieces) < 2 {
			continue
		}
		disconnected++
		total, largest := 0, 0
		for _, k := range pieces {
			total += k
			largest = max(largest, k)
		}
		stray += total - largest
	}
	return disconnected, stray
}

// TestConnectivityCensus pins how many communities the solver returns in
// more than one piece on the golden fixture, per rule and P, and checks the
// census on a hand-built membership.
func TestConnectivityCensus(t *testing.T) {
	// Two triangles joined by one arc, with a pendant vertex: {0,1,2,6} is
	// in two pieces ({0,1,2} and {6}), {3,4,5} in one.
	triangles, err := graph.FromEdges(7, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
		{U: 2, V: 3, W: 1}, {U: 5, V: 6, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, s := connectivity(triangles, graph.Membership{0, 0, 0, 1, 1, 1, 0}); d != 1 || s != 1 {
		t.Errorf("hand-built census: %d disconnected, %d stray; want 1, 1", d, s)
	}

	g := goldenGraph(t)
	for _, row := range []struct {
		h           Heuristic
		p           int
		disc, stray int
	}{
		{HeuristicSized, 1, 0, 0},
		{HeuristicSized, 2, 0, 0},
		{HeuristicSized, 4, 0, 0},
		{HeuristicEnhanced, 1, 0, 0},
		{HeuristicEnhanced, 2, 0, 0},
		{HeuristicEnhanced, 4, 0, 0},
		{HeuristicSimple, 1, 0, 0},
		{HeuristicSimple, 2, 0, 0},
		{HeuristicSimple, 4, 1, 1},
	} {
		res, err := Run(g, Options{P: row.p, Heuristic: row.h})
		if err != nil {
			t.Fatal(err)
		}
		d, s := connectivity(g, res.Membership)
		if d != row.disc || s != row.stray {
			t.Errorf("%v P=%d: %d of %d communities disconnected, %d stray; pinned %d, %d",
				row.h, row.p, d, res.Membership.NumCommunities(), s, row.disc, row.stray)
		}
	}
}
