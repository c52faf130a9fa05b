package comm

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/trace"
)

// Backoff is the retry policy shared by every robustness helper in this
// package: the TCP dialer and the chaos wrapper's recovery from injected
// transient send failures.
//
// Sleeps double from base up to max, with full jitter (a uniformly random
// fraction of the nominal sleep in [1/2, 1]) so a world of ranks retrying
// the same dead peer does not retry in lockstep. The jitter stream is
// seeded (seed), keeping fault-injection runs reproducible. Retrying stops
// when an attempt succeeds, the error is not Transient, or the time budget
// (Total, covering op time plus sleeps) would be exceeded by the next
// sleep. Total is the one knob callers choose; base, max and seed are set
// by this package alone (the chaos layer's policy, the dialer's per-peer
// seed, the tests).
type Backoff struct {
	// Total is the overall time budget including sleeps. Default 10s.
	Total time.Duration

	base time.Duration // first sleep; default 10ms
	max  time.Duration // cap on one sleep; default 500ms
	seed int64         // jitter stream seed; 0 is a valid seed
}

func (b Backoff) withDefaults() Backoff {
	if b.base <= 0 {
		b.base = 10 * time.Millisecond
	}
	if b.max <= 0 {
		b.max = 500 * time.Millisecond
	}
	if b.Total <= 0 {
		b.Total = 10 * time.Second
	}
	return b
}

// Retry runs op until it succeeds or the policy is exhausted. Only errors
// marked Transient are retried; any other error returns immediately. On
// give-up the returned error wraps both ErrRetriesExhausted and the last
// attempt's error, so callers can branch on either. what names the
// operation in retry events and errors (e.g. "dial rank 3").
func (b Backoff) Retry(what string, op func() error) error {
	b = b.withDefaults()
	rng := rand.New(rand.NewSource(b.seed))
	start := time.Now()
	deadline := start.Add(b.Total)
	sleep := b.base
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		// Full jitter: sleep a uniform fraction in [1/2, 1] of the nominal
		// backoff so concurrent retriers spread out.
		d := sleep/2 + time.Duration(rng.Int63n(int64(sleep/2)+1))
		if time.Now().Add(d).After(deadline) {
			return fmt.Errorf("comm: %s: %w after %d attempts over %v: %w",
				what, ErrRetriesExhausted, attempt, time.Since(start).Round(time.Millisecond), err)
		}
		trace.Eventf("retry", "%s attempt %d failed (%v); backing off %v", what, attempt, err, d)
		time.Sleep(d)
		sleep = min(2*sleep, b.max)
	}
}
