package core

import (
	"sort"

	"repro/internal/partition"
	"repro/internal/trace"
)

// gainEps is the tolerance under which two modularity gains count as equal
// (the tie case the convergence heuristics arbitrate).
const gainEps = 1e-12

// sweep performs one greedy local-moving pass over the rank's armed owned
// low vertices (applied immediately, Gauss-Seidel within the rank) and
// computes this rank's move proposal for every armed hub from its local
// share of hub arcs. It returns the hub proposals and the number of owned
// vertices moved.
//
// This is the stage's only sweep: a new stage is fully armed, so its first
// pass is the paper's Algorithm 2; afterwards a vertex is evaluated again
// only once a neighbour's label changed (vertex pruning, arXiv 2301.12390,
// 1410.1237), and a resident stage evaluates what its Session seeded. An
// unarmed vertex costs one work unit, an evaluated one its arcs + 4 and a
// moved one its arcs again for the arming; an unarmed hub costs one unit and
// an evaluated one its arcs + 1.
//
// Each move updates the cached aggregates the next decision reads (the
// paper's Gauss-Seidel semantics) and arms neighbours the same pass still
// reaches. The hub loop runs after the owned-vertex loop and mutates no state
// a proposal reads.
//
//perf:noalloc
func (s *stage) sweep() ([]hubProposal, int) {
	s.changed = s.changed[:0]
	moved := 0
	acc := s.acc

	work := int64(0)
	for i, u := range s.sg.Owned {
		if !s.active[u] {
			work++
			continue
		}
		s.active[u] = false
		s.seen[u] = true
		ku, adj := s.sg.OwnedWDeg[i], s.sg.AdjOwned[i]
		work += int64(len(adj)) + 4
		target, ok := s.bestMove(u, ku, adj, acc)
		if !ok {
			continue
		}
		cu := int(s.comm[u])
		s.comm[u] = int32(target)
		s.applyLocalMove(cu, target, ku)
		s.changed = append(s.changed, u)
		moved++
		// The move changed u's label and both communities' aggregates:
		// re-examine u, its local neighbours and its neighbouring hubs, and
		// carry the move into sumIn. Remote neighbours are armed by their own
		// ranks when u's new label arrives (ghostSwap).
		s.active[u] = true
		work += s.arm(u, adj, cu, target)
	}

	for i, h := range s.sg.Hubs {
		if !s.hubActive[i] {
			// A negInf proposal is not live: it never leaves the rank.
			work++
			s.props[i] = hubProposal{improvement: negInf, target: int(s.comm[h])}
			continue
		}
		s.hubActive[i] = false
		s.seen[h] = true
		work += int64(len(s.sg.AdjHub[i])) + 1
		s.props[i] = s.hubProposal(h, s.sg.HubWDeg[i], s.sg.AdjHub[i], acc)
	}
	s.addWork(trace.FindBest, work)
	return s.props, moved
}

// arm arms the targets of adj, the local arcs of vertex or hub u, which
// moved from community a to b, applies the change to sumIn over those arcs
// (and their local arcs back, arcShare), and returns the arc count to
// charge as work. A ghost's flag is set too and never read.
//
//perf:noalloc
func (s *stage) arm(u int, adj []partition.Arc, a, b int) int64 {
	_, uHub := s.hubIndex(u)
	for _, x := range adj {
		hi, hub := s.hubIndex(x.To)
		if hub {
			s.hubActive[hi] = true
		} else {
			s.active[x.To] = true
		}
		if x.To == u {
			continue // a self-loop stays inside whatever u joins
		}
		if f := s.flip(x.To, a, b, x.W); f != 0 {
			s.sumIn += f * arcShare(uHub, hub, !hub && s.owns(x.To))
		}
	}
	return int64(len(adj))
}

// gainAccumulator gathers w(u→c) per neighboring community for one vertex,
// with O(touched) reset. live and cands are the reusable scratch of
// scanCandidates: the keys that can still win, and the equal-gain candidate
// set. One accumulator exists per stage, so the steady-state sweep allocates
// nothing.
type gainAccumulator struct {
	w     []int64
	seen  []bool
	keys  []int
	live  []int
	cands []int
}

//perf:noalloc
func (g *gainAccumulator) reset() {
	for _, c := range g.keys {
		g.w[c] = 0
		g.seen[c] = false
	}
	g.keys = g.keys[:0]
}

//perf:noalloc
func (g *gainAccumulator) add(c int, w int64) {
	if !g.seen[c] {
		g.seen[c] = true
		g.keys = append(g.keys, c)
	}
	g.w[c] += w
}

// gain returns the modularity gain of inserting a vertex of weighted degree k
// into a community of aggregate tot to which wc of its arc weight goes. The
// fixed-point inputs are converted back to weights first, so on integer
// weights every gain and tie is bit for bit a float64 solver's.
func (s *stage) gain(wc, tot, k int64) float64 {
	w := partition.Dequantise
	return w(wc) - s.gamma*w(tot)*w(k)/w(s.m2)
}

// scanCandidates accumulates the arc weights of vertex u (current community
// cu, weighted degree k, adjacency adj) into acc and collects the max-gain
// candidate communities. It returns the gain of staying in cu, the best
// gain seen, and the equal-best candidate set in ascending label order
// (aliasing acc's scratch, valid until the next call on the same acc).
// This is the one place the gain and tie logic lives; bestMove and
// hubProposal both arbitrate its output.
//
// Only a community whose gain exceeds stayGain-gainEps is scanned: best
// starts at stayGain and never falls, so any other key fails both comparisons
// wherever its label places it. The survivors are scanned in label order,
// unless the largest gain clears stayGain and every other by more than
// gainEps: then its key resets cands and nothing ties it, in any order.
//
//perf:noalloc
func (s *stage) scanCandidates(u, cu int, k int64, adj []partition.Arc, acc *gainAccumulator) (stayGain, best float64, cands []int) {
	acc.reset()
	for _, a := range adj {
		if a.To == u {
			continue // self-loops contribute to no move
		}
		acc.add(int(s.comm[a.To]), a.W)
	}
	// Gain of staying: u removed from cu, then re-inserted.
	stayGain = s.gain(acc.w[cu], s.lookupTot(cu)-k, k)

	floor := stayGain - gainEps
	live := acc.live[:0]
	top, second := stayGain, negInf // the two largest of stayGain and the survivors' gains
	for _, c := range acc.keys {
		if c == cu {
			continue
		}
		if gain := s.gain(acc.w[c], s.lookupTot(c), k); gain > floor {
			live = append(live, c)
			top, second = max(top, gain), max(second, min(top, gain))
		}
	}
	acc.live = live
	if !(top > second+gainEps && second <= top-gainEps) {
		sort.Ints(live)
	}

	best = stayGain
	cands = acc.cands[:0]
	for _, c := range live {
		gain := s.gain(acc.w[c], s.lookupTot(c), k)
		switch {
		case gain > best+gainEps:
			best = gain
			cands = append(cands[:0], c)
		case gain > best-gainEps:
			cands = append(cands, c)
		}
	}
	acc.cands = cands[:0]
	return stayGain, best, cands
}

// bestMove evaluates vertex u (current community from s.comm, weighted
// degree ku, adjacency adj) and returns the community it should move to.
// ok is false when the vertex stays put.
//
//perf:noalloc
func (s *stage) bestMove(u int, ku int64, adj []partition.Arc, acc *gainAccumulator) (int, bool) {
	cu := int(s.comm[u])
	stayGain, best, cands := s.scanCandidates(u, cu, ku, adj, acc)
	if len(cands) == 0 || best <= stayGain+gainEps {
		// Staying ties the best move (or beats it): do not churn.
		return 0, false
	}
	target := s.pickCandidate(cu, cands)
	if target == cu || !s.allowMove(cu, target) {
		return 0, false
	}
	return target, true
}

// allowMove applies the convergence heuristic's movement constraint
// (paper Section IV-C / Algorithm 2 line 11).
//
// Enhanced (the paper's heuristic): moves into communities local to this
// rank are unrestricted — the rank applies them Gauss-Seidel style with
// fresh aggregates, exactly like the sequential algorithm. Only moves into
// *remote* communities, whose state is one iteration stale and whose
// symmetric counterpart may move concurrently (the bouncing problem of
// Figure 3), take the minimum-label constraint C(u) = min(C_new, C_cur);
// the opposite-direction merge is performed by the remote side, which sees
// the mirrored gain.
//
// Sized (the default) keeps local moves unrestricted and orders remote
// ones by the communities' iteration-start member counts instead: the move
// is allowed only into a larger community, or an equal one with a smaller
// label. Every rank holds the same iteration-start counts (snapSize), so
// the order is world-wide and breaks the bouncing just as the label does.
//
// Simple applies no movement constraint at all — minimum label acts only as
// the tie-breaker, which is how the paper evaluates Lu et al.'s heuristic
// in a distributed setting (and why it underperforms there).
func (s *stage) allowMove(cu, target int) bool {
	switch {
	case s.opt.Heuristic == HeuristicSimple || s.owns(target):
		return true
	case s.opt.Heuristic == HeuristicEnhanced:
		return target < cu
	}
	nt, nc := s.snapSize(target), s.snapSize(cu)
	return nt > nc || (nt == nc && target < cu)
}

// snapSize returns the member count community c had when this iteration's
// push installed the owner's values: the live cache entry minus this rank's
// own moves of the sweep, which deltaN holds until the flush. The push
// leaves every rank with the owner's exact count of every community a local
// vertex carries, so all ranks read the same value.
func (s *stage) snapSize(c int) int32 { return s.size[c] - s.deltaN[c] }

// pickCandidate arbitrates a set of equal-gain candidate communities
// (ascending label order) according to the configured heuristic.
func (s *stage) pickCandidate(cu int, cands []int) int {
	if len(cands) == 1 || s.opt.Heuristic == HeuristicSimple {
		return cands[0] // the minimum label: cands are sorted
	}
	return s.pickEnhanced(cands)
}

// pickEnhanced implements the paper's enhanced heuristic: prefer a local
// community (one owned by this rank, whose state is fresh), then a remote
// community with more than one member (unlikely to vanish underneath us),
// then the minimum-label singleton ghost community.
func (s *stage) pickEnhanced(cands []int) int {
	localBest, multiBest := -1, -1
	for _, c := range cands {
		if s.owns(c) {
			if localBest < 0 {
				localBest = c
			}
			continue
		}
		if s.cachedSize(c) > 1 && multiBest < 0 {
			multiBest = c
		}
	}
	if localBest >= 0 {
		return localBest
	}
	if multiBest >= 0 {
		return multiBest
	}
	return cands[0] // minimum-label singleton ghost
}

// hubProposal computes this rank's proposal for hub h from the local share
// of its arcs: the candidate community with the highest gain advantage over
// the hub's current community, arbitrated by the same heuristic.
//
//perf:noalloc
func (s *stage) hubProposal(h int, kh int64, adj []partition.Arc, acc *gainAccumulator) hubProposal {
	ch := int(s.comm[h])
	if len(adj) == 0 {
		return hubProposal{improvement: negInf, target: ch}
	}
	stayGain, best, cands := s.scanCandidates(h, ch, kh, adj, acc)
	if len(cands) == 0 {
		return hubProposal{improvement: negInf, target: ch}
	}
	return hubProposal{
		improvement: best - stayGain,
		target:      s.pickCandidate(ch, cands),
	}
}
