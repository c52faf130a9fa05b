package harness

import (
	"testing"
	"time"
)

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := Span{ID: 0, Start: 100, End: 1100, Parent: NoSpan}
	spans := []Span{
		parent,
		{ID: 1, Start: 200, End: 400, Parent: 0},   // 200
		{ID: 2, Start: 300, End: 500, Parent: 0},   // overlaps 1: adds 100
		{ID: 3, Start: 350, End: 380, Parent: 0},   // inside 1 and 2: adds 0
		{ID: 4, Start: 900, End: 1300, Parent: 0},  // clipped at the parent's end: 200
		{ID: 5, Start: 0, End: 150, Parent: 0},     // clipped at the parent's start: 50
		{ID: 6, Start: 600, End: 700, Parent: 1},   // a grandchild: not the parent's child
		{ID: 7, Start: 1200, End: 1250, Parent: 0}, // wholly outside: 0
	}
	kids := Children(spans)
	if got := ChildCover(parent, kids[0]); got != 550 {
		t.Errorf("ChildCover = %d, want 550", got)
	}
	if got := SelfTime(parent, kids[0]); got != 450 {
		t.Errorf("SelfTime = %d, want 450", got)
	}
	if got := SelfTime(spans[1], kids[1]); got != 200 {
		t.Errorf("SelfTime of a child whose own child lies outside it = %d, want 200", got)
	}
	if got := SelfTime(spans[3], kids[3]); got != spans[3].Duration() {
		t.Errorf("SelfTime of a leaf = %d, want its duration", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *Recorder
	id := r.Open("x", NoSpan, 0, 0)
	r.Close(id)
	r.Add("y", time.Now(), time.Now(), id, 0, 0)
	if id != NoSpan || r.Spans() != nil {
		t.Errorf("nil recorder recorded something")
	}
}

func TestRecorderParents(t *testing.T) {
	r := NewRecorder()
	root := r.Open("root", NoSpan, -1, 3)
	t0 := time.Now()
	r.Add("leaf", t0, time.Now(), root, 2, 3)
	open := r.Open("never closed", root, 0, 3)
	r.Close(root)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2 (span %d was left open)", len(spans), open)
	}
	if spans[1].Parent != spans[0].ID || spans[1].Rank != 2 || spans[1].Rep != 3 {
		t.Errorf("leaf = %+v, want parent %d rank 2 rep 3", spans[1], spans[0].ID)
	}
	if spans[0].End < spans[1].End {
		t.Errorf("root ended at %d, before its child at %d", spans[0].End, spans[1].End)
	}
}
