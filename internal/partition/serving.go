package partition

import "sort"

// Post-Build mutation for the resident serving path. Build produces an
// immutable Layout shared by every rank of an in-process world (and by the
// census reporting after the run); internal/core's Session applies edge
// updates to its rank's Subgraph while it serves. It therefore works on a
// CloneForServing copy and edits that with the helpers below; the Layout the
// driver holds stays pristine. Ownership never changes — π-space vertex v
// belongs to rank v mod P for the life of the Layout — so Owned is only
// ever searched.
//
// The helpers preserve the Subgraph invariants the solver relies on: Ghosts
// stays sorted and every Subscribers list stays sorted and duplicate-free.

// CloneForServing returns a copy of s whose update-mutable state — Owned,
// OwnedWDeg, AdjOwned, Ghosts, Subscribers and the hub tables (Build shares
// Hubs across every rank's part; updates adjust HubWDeg and the AdjHub shares
// in place) — is detached from the original. Inner adjacency slices stay
// shared: the serving mutators copy-on-write any arc list they edit.
func (s *Subgraph) CloneForServing() *Subgraph {
	c := *s
	c.Owned = append([]int(nil), s.Owned...)
	c.OwnedWDeg = append([]int64(nil), s.OwnedWDeg...)
	c.AdjOwned = append([][]Arc(nil), s.AdjOwned...)
	c.Ghosts = append([]int(nil), s.Ghosts...)
	c.Subscribers = make(map[int][]int, len(s.Subscribers))
	for v, subs := range s.Subscribers {
		c.Subscribers[v] = append([]int(nil), subs...)
	}
	c.Hubs = append([]int(nil), s.Hubs...)
	c.HubWDeg = append([]int64(nil), s.HubWDeg...)
	c.AdjHub = append([][]Arc(nil), s.AdjHub...)
	return &c
}

// OwnedIndex returns the position of v in Owned, or (i, false) with the
// insertion point i when v is not owned here.
func (s *Subgraph) OwnedIndex(v int) (int, bool) {
	i := sort.SearchInts(s.Owned, v)
	return i, i < len(s.Owned) && s.Owned[i] == v
}

// AddGhost records v as a ghost (sorted insert, no-op when present).
func (s *Subgraph) AddGhost(v int) {
	i := sort.SearchInts(s.Ghosts, v)
	if i < len(s.Ghosts) && s.Ghosts[i] == v {
		return
	}
	s.Ghosts = append(s.Ghosts, 0)
	copy(s.Ghosts[i+1:], s.Ghosts[i:])
	s.Ghosts[i] = v
}

// Subscribe adds rank r to the subscriber set of owned vertex v (sorted
// insert, no-op when present or when r is this rank).
func (s *Subgraph) Subscribe(v, r int) {
	if r == s.Rank {
		return
	}
	subs := s.Subscribers[v]
	i := sort.SearchInts(subs, r)
	if i < len(subs) && subs[i] == r {
		return
	}
	subs = append(subs, 0)
	copy(subs[i+1:], subs[i:])
	subs[i] = r
	s.Subscribers[v] = subs
}
