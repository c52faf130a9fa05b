package partition

import (
	"reflect"
	"testing"

	"repro/internal/gen"
)

func testSubgraph() *Subgraph {
	return &Subgraph{
		Rank: 1, P: 4,
		GlobalVertices: 16,
		Owned:          []int{1, 5, 9, 13},
		OwnedWDeg:      []int64{2, 3, 4, 5},
		AdjOwned: [][]Arc{
			{{To: 2, W: 1}, {To: 5, W: 1}},
			{{To: 1, W: 1}, {To: 9, W: 2}},
			{{To: 5, W: 2}, {To: 2, W: 2}},
			{{To: 2, W: 5}},
		},
		Ghosts:      []int{2},
		Subscribers: map[int][]int{5: {0, 2}},
		Hubs:        []int{3, 7},
		HubWDeg:     []int64{6, 8},
		AdjHub:      [][]Arc{{{To: 1, W: 6}}, {{To: 5, W: 8}}},
	}
}

// TestBuildPartsShareNoMutableTable pins what lets a serving Session edit
// its part in place: no two of Build's parts, and no two rows of one part,
// share the memory of a table a Session update edits — HubWDeg, OwnedWDeg
// and the AdjOwned and AdjHub rows. It adds one to every entry of every
// such table on every part of one layout; each entry must then read one
// more than its twin in a second build of the same graph, where memory
// shared by k tables would read k more.
func TestBuildPartsShareNoMutableTable(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{P: 4, Kind: Delegate, DHigh: 24}
	edited, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(edited.Hubs) == 0 {
		t.Fatal("fixture has no hubs")
	}
	for _, sp := range edited.Parts {
		for i := range sp.HubWDeg {
			sp.HubWDeg[i]++
		}
		for i := range sp.OwnedWDeg {
			sp.OwnedWDeg[i]++
		}
		for _, rows := range [][][]Arc{sp.AdjOwned, sp.AdjHub} {
			for _, adj := range rows {
				for j := range adj {
					adj[j].W++
				}
			}
		}
	}
	for r, sp := range edited.Parts {
		want := fresh.Parts[r]
		for i := range sp.HubWDeg {
			if sp.HubWDeg[i] != want.HubWDeg[i]+1 {
				t.Fatalf("rank %d hub %d: degree %d after one edit of %d", r, i, sp.HubWDeg[i], want.HubWDeg[i])
			}
		}
		for i := range sp.OwnedWDeg {
			if sp.OwnedWDeg[i] != want.OwnedWDeg[i]+1 {
				t.Fatalf("rank %d owned %d: degree %d after one edit of %d", r, i, sp.OwnedWDeg[i], want.OwnedWDeg[i])
			}
		}
		for k, rows := range [][][]Arc{sp.AdjOwned, sp.AdjHub} {
			wantRows := [][][]Arc{want.AdjOwned, want.AdjHub}[k]
			for i, adj := range rows {
				for j, a := range adj {
					if w := wantRows[i][j].W; a.W != w+1 {
						t.Fatalf("rank %d table %d row %d arc %d: weight %d after one edit of %d", r, k, i, j, a.W, w)
					}
				}
			}
		}
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
	s := testSubgraph()
	s.AddGhost(6)
	s.AddGhost(0)
	s.AddGhost(6) // duplicate: no-op
	if want := []int{0, 2, 6}; !reflect.DeepEqual(s.Ghosts, want) {
		t.Fatalf("Ghosts = %v, want %v", s.Ghosts, want)
	}
}

func TestSubscriberSet(t *testing.T) {
	s := testSubgraph()
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
