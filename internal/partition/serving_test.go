package partition

import (
	"reflect"
	"testing"
)

func testSubgraph() *Subgraph {
	return &Subgraph{
		Rank: 1, P: 4,
		GlobalVertices: 16,
		Owned:          []int{1, 5, 9, 13},
		OwnedWDeg:      []float64{2, 3, 4, 5},
		AdjOwned: [][]Arc{
			{{To: 2, W: 1}, {To: 5, W: 1}},
			{{To: 1, W: 1}, {To: 9, W: 2}},
			{{To: 5, W: 2}, {To: 2, W: 2}},
			{{To: 2, W: 5}},
		},
		Ghosts:      []int{2},
		Subscribers: map[int][]int{5: {0, 2}},
		Hubs:        []int{3, 7},
		HubWDeg:     []float64{6, 8},
		AdjHub:      [][]Arc{{{To: 1, W: 6}}, {{To: 5, W: 8}}},
	}
}

// TestCloneForServingDetaches edits every table a Session update touches on
// the clone — the way the Session does it — and requires the original to keep
// its values: the owned and ghost tables, the subscriber sets and the hub
// tables Build shares across ranks.
func TestCloneForServingDetaches(t *testing.T) {
	orig := testSubgraph()
	want := testSubgraph() // reference copy for comparison
	c := orig.CloneForServing()
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("clone differs from its source:\n got %+v\nwant %+v", c, want)
	}

	c.Owned[0] = 99
	c.OwnedWDeg[1] += 7
	c.AdjOwned[2] = []Arc{{To: 1, W: 7}}
	c.AddGhost(6)
	c.Subscribe(9, 3)
	c.Subscribe(5, 3)
	c.Hubs[0] = 11
	c.HubWDeg[1] += 2
	c.AdjHub[0] = append(c.AdjHub[0][:0:0], Arc{To: 9, W: 1})

	if !reflect.DeepEqual(orig, want) {
		t.Fatalf("clone mutation leaked into the original:\n got %+v\nwant %+v", orig, want)
	}
}

func TestOwnedIndex(t *testing.T) {
	s := testSubgraph()
	for i, v := range s.Owned {
		if got, ok := s.OwnedIndex(v); !ok || got != i {
			t.Fatalf("OwnedIndex(%d) = %d, %v; want %d, true", v, got, ok, i)
		}
	}
	for v, at := range map[int]int{0: 0, 4: 1, 10: 3, 15: 4} {
		if got, ok := s.OwnedIndex(v); ok || got != at {
			t.Fatalf("OwnedIndex(%d) = %d, %v; want insertion point %d, false", v, got, ok, at)
		}
	}
}

func TestGhostSet(t *testing.T) {
	s := testSubgraph().CloneForServing()
	s.AddGhost(6)
	s.AddGhost(0)
	s.AddGhost(6) // duplicate: no-op
	if want := []int{0, 2, 6}; !reflect.DeepEqual(s.Ghosts, want) {
		t.Fatalf("Ghosts = %v, want %v", s.Ghosts, want)
	}
}

func TestSubscriberSet(t *testing.T) {
	s := testSubgraph().CloneForServing()
	s.Subscribe(5, 3)
	s.Subscribe(5, 0) // present: no-op
	s.Subscribe(5, 1) // own rank: no-op
	if want := []int{0, 2, 3}; !reflect.DeepEqual(s.Subscribers[5], want) {
		t.Fatalf("Subscribers[5] = %v, want %v", s.Subscribers[5], want)
	}
	s.Subscribe(9, 3) // first subscriber of a vertex
	s.Subscribe(9, 0)
	if want := []int{0, 3}; !reflect.DeepEqual(s.Subscribers[9], want) {
		t.Fatalf("Subscribers[9] = %v, want %v", s.Subscribers[9], want)
	}
}
