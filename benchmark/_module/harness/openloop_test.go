package harness

import (
	"testing"
	"time"
)

// A handler that stalls once must show the stall in the latencies of the
// requests that came due during it, although each of those is served
// quickly once sent: that is what timing from Due means.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		gap     = 2 * time.Millisecond
		stall   = 100 * time.Millisecond
		stallAt = 20
		n       = 150
	)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Due: time.Duration(i) * gap, Line: "r"}
	}
	calls := 0
	handle := func(string) string {
		calls++
		if calls == stallAt+1 {
			time.Sleep(stall)
		}
		return "ok"
	}
	rec := NewRecorder()
	outs := RunOpenLoop(time.Duration(n)*gap, [][]Request{reqs}, handle, rec, "fake.handle", NoSpan)[0]
	if len(outs) != n {
		t.Fatalf("sent %d of %d", len(outs), n)
	}
	if got := len(rec.Spans()); got != n {
		t.Errorf("recorded %d spans, want %d", got, n)
	}

	for i, o := range outs {
		if o.Sent < o.Due {
			t.Fatalf("request %d sent %v before it was due", i, o.Due-o.Sent)
		}
		if i > 0 && o.Sent < outs[i-1].Done {
			t.Fatalf("request %d sent before request %d was answered", i, i-1)
		}
	}
	// Requests before the stall are on time.
	for _, o := range outs[:stallAt] {
		if o.Latency() > stall/4 {
			t.Fatalf("latency %v before the stall", o.Latency())
		}
	}
	// The one just behind the stalled request was due 2 ms into a 100 ms
	// stall: it waits nearly all of it, and is served fast.
	next := outs[stallAt+1]
	if next.Latency() < stall-4*gap {
		t.Errorf("request behind the stall: latency %v, want about %v", next.Latency(), stall)
	}
	if next.Service() > stall/4 {
		t.Errorf("request behind the stall: service %v, want short", next.Service())
	}
	// Its lateness is the server's doing, not the generator's.
	if next.Lag > stall/4 {
		t.Errorf("request behind the stall: generator lag %v, want short", next.Lag)
	}
	late, slow := 0, 0
	for _, o := range outs {
		if o.Sent-o.Due > lateLimit {
			late++
		}
		if o.Latency() > readLimit {
			slow++
		}
	}
	// 100 ms of stall at one request per 2 ms: about 50 requests come due
	// during it, and the backlog drains at once afterwards.
	if late < 30 || slow < 30 {
		t.Errorf("late %d, slow %d of %d; want the stall's backlog (about 45) in both", late, slow, n)
	}
	if late > 100 {
		t.Errorf("late %d of %d: the backlog never drained", late, n)
	}
}

func TestOpenLoopStopsAtTheWindow(t *testing.T) {
	reqs := []Request{{Due: 0, Line: "a"}, {Due: time.Millisecond, Line: "b"}, {Due: time.Hour, Line: "never"}}
	outs := RunOpenLoop(10*time.Millisecond, [][]Request{reqs, nil}, func(s string) string { return s }, nil, "", NoSpan)
	if len(outs[0]) != 2 || len(outs[1]) != 0 {
		t.Fatalf("sent %d and %d requests, want 2 and 0", len(outs[0]), len(outs[1]))
	}
	if outs[0][1].Reply != "b" {
		t.Errorf("reply %q, want b", outs[0][1].Reply)
	}
}
