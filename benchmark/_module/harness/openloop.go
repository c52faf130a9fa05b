package harness

import (
	"sync"
	"time"
)

// Request is one scheduled protocol line. Due is when it is to be sent,
// counted from the start of the measuring window.
type Request struct {
	Due    time.Duration
	Line   string
	Update bool
}

// Outcome is what happened to one Request. All times count from the start
// of the window. A request the stream never got to send (the backlog ran
// past the window's grace) has Dropped set and counts as failed.
type Outcome struct {
	Request
	Sent    time.Duration
	Done    time.Duration
	Lag     time.Duration // Sent minus the moment the stream was free and the request due
	Reply   string
	Dropped bool
}

// Latency is the time from when the request was due to its reply: the
// figure a user on a schedule sees. A stall counts against every request
// that came due during it, not only the one that was in flight.
func (o Outcome) Latency() time.Duration { return o.Done - o.Due }

// Service is the time from send to reply: what the server alone took.
func (o Outcome) Service() time.Duration { return o.Done - o.Sent }

// dropGrace is how far past the window a backlogged stream keeps sending
// before it gives up and marks the rest dropped, so that a wedged server
// ends the run instead of hanging it.
const dropGrace = 10 * time.Second

// RunOpenLoop plays every stream on its own goroutine against handle for
// window: each request is sent when it is due, or as soon after as the
// stream's previous reply allows, and never earlier. One stream is one
// client connection, so its requests keep their order (the writer stream's
// update order, and with it the run's final state, is repeatable); being
// timed from Due, not from Sent, is what makes the loop open. loadgen.Run
// sleeps a gap after each reply, which lets a slow server thin its own
// load, and is not used here.
//
// With a Recorder, each request leaves a span named spanName.
func RunOpenLoop(window time.Duration, streams [][]Request, handle func(line string) string, rec *Recorder, spanName string, parent int) [][]Outcome {
	outs := make([][]Outcome, len(streams))
	start := time.Now()
	var wg sync.WaitGroup
	for si, reqs := range streams {
		wg.Add(1)
		go func(si int, reqs []Request) {
			defer wg.Done()
			res := make([]Outcome, 0, len(reqs))
			var free time.Duration
			for _, rq := range reqs {
				if rq.Due >= window {
					break
				}
				o := Outcome{Request: rq}
				now := time.Since(start)
				if now > window+dropGrace {
					o.Dropped = true
					res = append(res, o)
					continue
				}
				if now < rq.Due {
					time.Sleep(rq.Due - now)
				}
				ready := rq.Due
				if free > ready {
					ready = free
				}
				t0 := time.Now()
				o.Reply = handle(rq.Line)
				t1 := time.Now()
				o.Sent, o.Done = t0.Sub(start), t1.Sub(start)
				o.Lag = o.Sent - ready
				free = o.Done
				rec.Add(spanName, t0, t1, parent, si, len(res))
				res = append(res, o)
			}
			outs[si] = res
		}(si, reqs)
	}
	wg.Wait()
	return outs
}
