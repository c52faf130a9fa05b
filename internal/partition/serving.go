package partition

import "sort"

// Post-Build mutation for the resident serving path: internal/core's
// Session applies edge updates to its rank's Subgraph in place while it
// serves, through the helpers below. Build's parts share no table a Session
// edits — every part has its own HubWDeg and its own adjacency rows; the
// shared Hubs directory and π tables are only read — so a layout handed to a serving
// world is the world's, and a caller that wants a pristine copy builds
// another. Ownership never changes — π-space vertex v belongs to rank
// v mod P for the life of the Layout — so Owned is only ever searched.
//
// The helpers preserve the Subgraph invariants the solver relies on: Ghosts
// stays sorted and every Subscribers list stays sorted and duplicate-free.

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
