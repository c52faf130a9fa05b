package harness

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was made; Parent is the ID of the span
// that caused this one (-1 for a root); spans of one rep share Rep.
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Rank   int    `json:"rank"`
	Rep    int    `json:"rep"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// NoSpan is the parent of a root span, and the ID a nil Recorder hands out.
const NoSpan = -1

// Recorder keeps spans in memory until the benchmark ends. A nil *Recorder
// is tracing switched off: every method is a no-op, so the untraced run
// pays one nil check per boundary.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts a recorder whose clock is zero now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Open starts a span that will have children and returns its ID; Close
// ends it. A span left open keeps End = 0 and is dropped by Spans.
func (r *Recorder) Open(name string, parent, rank, rep int) int {
	if r == nil {
		return NoSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Name: name, Start: now, Parent: parent, Rank: rank, Rep: rep})
	r.mu.Unlock()
	return id
}

// Close ends the span Open returned.
func (r *Recorder) Close(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Add records a finished leaf span.
func (r *Recorder) Add(name string, start, end time.Time, parent, rank, rep int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{
		ID: len(r.spans), Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		Parent: parent, Rank: rank, Rep: rep,
	})
	r.mu.Unlock()
}

// Spans returns a copy of every closed span, in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSON writes the closed spans to path as one JSON array and returns
// how many there were.
func (r *Recorder) WriteJSON(path string) (int, error) {
	spans := r.Spans()
	data, err := json.Marshal(spans)
	if err != nil {
		return 0, err
	}
	return len(spans), os.WriteFile(path, data, 0o644)
}

// Children groups spans by the ID of their parent.
func Children(spans []Span) map[int][]Span {
	m := make(map[int][]Span)
	for _, s := range spans {
		m[s.Parent] = append(m[s.Parent], s)
	}
	return m
}

// ChildCover is the part of parent's interval that its direct children
// cover: the length of the union of the children's intervals, each clipped
// to the parent. Overlapping children (three concurrent receives of one
// rank) count once.
func ChildCover(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, s := range children {
		lo, hi := s.Start, s.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var cover, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		cover += v.hi - v.lo
		end = v.hi
	}
	return time.Duration(cover)
}

// SelfTime is a span's duration minus the part of it its children cover.
func SelfTime(parent Span, children []Span) time.Duration {
	return parent.Duration() - ChildCover(parent, children)
}
