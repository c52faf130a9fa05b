package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// Unit tests for the robustness primitives: the transient-error retry
// policy, receive deadlines on both transports, dial-time retry, and the
// TCPEndpoint.Close goroutine-leak regression.

func TestTransientClassification(t *testing.T) {
	base := errors.New("boom")
	if IsTransient(base) {
		t.Fatal("bare error classified transient")
	}
	tr := Transient(base)
	if !IsTransient(tr) {
		t.Fatal("Transient() not classified transient")
	}
	if !errors.Is(tr, base) {
		t.Fatal("Transient() hides the wrapped error from errors.Is")
	}
	if !IsTransient(fmt.Errorf("outer: %w", tr)) {
		t.Fatal("wrapping hides transience")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
}

func TestRetryRecoversTransient(t *testing.T) {
	calls := 0
	pol := Backoff{base: time.Microsecond, max: 10 * time.Microsecond, Total: time.Second, seed: 1}
	err := pol.Retry("unit", func() error {
		calls++
		if calls < 4 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d, want nil after 4", err, calls)
	}
}

func TestRetryPermanentFailsFast(t *testing.T) {
	calls := 0
	perm := errors.New("permanent")
	pol := Backoff{base: time.Microsecond, Total: time.Second}
	err := pol.Retry("unit", func() error { calls++; return perm })
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
	if !errors.Is(err, perm) {
		t.Fatalf("got %v, want the permanent error", err)
	}
}

func TestRetryExhaustion(t *testing.T) {
	inner := errors.New("still down")
	pol := Backoff{base: time.Millisecond, max: 2 * time.Millisecond, Total: 50 * time.Millisecond, seed: 7}
	var sink bytes.Buffer
	trace.SetEventOutput(&sink)
	defer trace.SetEventOutput(nil)
	err := pol.Retry("unit", func() error { return Transient(inner) })
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("got %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, inner) {
		t.Fatalf("exhaustion error hides the last cause: %v", err)
	}
	if !strings.Contains(sink.String(), "[retry]") {
		t.Fatalf("no retry events traced; got %q", sink.String())
	}
}

// TestRecvTimeout checks the deadline surface on every transport: with an
// endpoint deadline set, a Recv with no matching sender fails with
// ErrTimeout after roughly d, and the timeout does not disturb messages
// that arrive later.
func TestRecvTimeout(t *testing.T) {
	scenario := func(c Comm) error {
		if c.Size() != 2 {
			return fmt.Errorf("scenario wants 2 ranks")
		}
		if c.Rank() == 1 {
			// Stay alive (so no ErrPeerDown) until rank 0 finishes, then
			// supply the late message.
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
			return c.Send(0, 2, []byte("late"))
		}
		if !SetRecvTimeout(c, 30*time.Millisecond) {
			return fmt.Errorf("transport does not support SetRecvTimeout")
		}
		for i := 0; i < 2; i++ {
			start := time.Now()
			if _, err := c.Recv(1, 2); !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("recv %d: got %v, want ErrTimeout", i, err)
			}
			if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
				return fmt.Errorf("recv %d timed out after only %v", i, elapsed)
			}
		}
		SetRecvTimeout(c, 0)
		// Unblock rank 1; the following Recv must then succeed: deadlines
		// must not corrupt the mailbox.
		if err := c.Send(1, 1, nil); err != nil {
			return err
		}
		got, err := c.Recv(1, 2)
		if err != nil {
			return err
		}
		if string(got) != "late" {
			return fmt.Errorf("late message corrupted: %q", got)
		}
		return nil
	}
	t.Run("inproc", func(t *testing.T) {
		if err := RunWorld(2, scenario); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		if err := runTCPWorld(t, 2, scenario); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("chaos-inproc", func(t *testing.T) {
		if err := RunWorldChaos(2, ChaosOptions{Seed: 3}, scenario); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecvDrainsBeforePeerDown pins the mailbox's decision order on both
// transports: frames a peer sent before it went away are delivered before
// its failure is reported. Rank 1 sends n frames on each of two tags and
// leaves — its function returns (in-process) or its endpoint closes (TCP) —
// while rank 0 sleeps past the departure before its first Recv. Rank 0 must
// still get every frame, in per-pair FIFO order, and only then a prompt
// error wrapping ErrPeerDown.
func TestRecvDrainsBeforePeerDown(t *testing.T) {
	const n = 100
	tags := [2]int{3, 4}
	frame := func(tag, i int) []byte {
		b := make([]byte, 8<<10)
		binary.LittleEndian.PutUint64(b, uint64(tag)<<32|uint64(i))
		return b
	}
	scenario := func(c Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < n; i++ {
				for _, tag := range tags {
					if err := c.Send(0, tag, frame(tag, i)); err != nil {
						return err
					}
				}
			}
			return nil
		}
		time.Sleep(1100 * time.Millisecond)
		// Bound the final Recv: a mailbox that lost the failure would
		// otherwise block forever instead of failing the test.
		SetRecvTimeout(c, 10*time.Second)
		for _, tag := range []int{tags[1], tags[0]} {
			for i := 0; i < n; i++ {
				got, err := c.Recv(1, tag)
				if err != nil {
					return fmt.Errorf("tag %d frame %d of %d: %w", tag, i, n, err)
				}
				if !bytes.Equal(got, frame(tag, i)) {
					return fmt.Errorf("tag %d frame %d: out of order or corrupt", tag, i)
				}
			}
		}
		start := time.Now()
		_, err := c.Recv(1, tags[0])
		if !errors.Is(err, ErrPeerDown) {
			return fmt.Errorf("recv after the last frame: got %v, want ErrPeerDown", err)
		}
		if d := time.Since(start); d > time.Second {
			return fmt.Errorf("ErrPeerDown took %v", d)
		}
		return nil
	}
	t.Run("inproc", func(t *testing.T) {
		if err := withWatchdog(t, conformanceWatchdog, func() error { return RunWorld(2, scenario) }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		if err := withWatchdog(t, conformanceWatchdog, func() error { return runTCPWorld(t, 2, scenario) }); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDialRetryEventualSuccess delays one rank's startup past several
// backoff periods; the early rank's dials must retry until the listener
// appears instead of failing on the first connection refusal.
func TestDialRetryEventualSuccess(t *testing.T) {
	addrs := freeAddrs(t, 2)
	pol := Backoff{base: 5 * time.Millisecond, max: 50 * time.Millisecond, Total: 10 * time.Second, seed: 1}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			if r == 1 {
				time.Sleep(150 * time.Millisecond)
			}
			ep, err := DialTCPWorld(r, addrs, pol)
			if err != nil {
				errs[r] = err
				return
			}
			defer ep.Close()
			errs[r] = Barrier(ep)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestDialRetryExhaustion points a rank at a peer that never starts; the
// dial must give up within the configured budget with a typed error, not
// hang.
func TestDialRetryExhaustion(t *testing.T) {
	addrs := freeAddrs(t, 2)
	pol := Backoff{base: 2 * time.Millisecond, max: 10 * time.Millisecond, Total: 300 * time.Millisecond, seed: 1}
	start := time.Now()
	ep, err := DialTCPWorld(0, addrs, pol) // rank 1 never comes up
	if err == nil {
		ep.Close()
		t.Fatal("dial succeeded with no peer listening")
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("got %v, want ErrRetriesExhausted", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial gave up only after %v", elapsed)
	}
}

// TestTCPCloseReleasesRecv is the goroutine-leak regression test for
// TCPEndpoint.Close: a Recv blocked with no sender must return ErrClosed
// when the endpoint closes, and after every endpoint is closed the package
// must hold no surviving reader/writer goroutines.
func TestTCPCloseReleasesRecv(t *testing.T) {
	baseline := runtime.NumGoroutine()

	addrs := freeAddrs(t, 2)
	eps := make([]*TCPEndpoint, 2)
	var dialWG sync.WaitGroup
	dialErr := make([]error, 2)
	dialWG.Add(2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer dialWG.Done()
			eps[r], dialErr[r] = DialTCPWorld(r, addrs, Backoff{})
		}(r)
	}
	dialWG.Wait()
	if err := errors.Join(dialErr...); err != nil {
		t.Fatal(err)
	}

	recvErr := make(chan error, 1)
	go func() {
		_, err := eps[0].Recv(1, 9) // nothing will ever be sent on tag 9
		recvErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Recv park

	if err := eps[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending Recv got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending Recv still blocked after Close")
	}
	if err := eps[1].Close(); err != nil {
		t.Fatalf("close peer: %v", err)
	}

	waitGoroutines(t, baseline)
}

// closedAfterFirst is a Comm whose peers are gone after its first Send, the
// way a TCP peer that received a frame, finished and closed is: every later
// Send fails with ErrPeerDown.
type closedAfterFirst struct {
	Comm
	mu   sync.Mutex
	sent int
}

func (c *closedAfterFirst) Send(dst, tag int, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sent++; c.sent > 1 {
		return fmt.Errorf("comm: rank %d peer %d %w: EOF", c.Rank(), dst, ErrPeerDown)
	}
	return nil
}

// TestChaosDuplicateAfterPeerClose: an injected duplicate is redundant, so
// when the peer has already received the original and closed, the failed
// copy must not poison the sender. This is the benign TCP chaos matrix's
// "peer down: EOF" under the race detector, made deterministic.
func TestChaosDuplicateAfterPeerClose(t *testing.T) {
	err := RunWorld(2, func(c Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		cc := NewChaosComm(&closedAfterFirst{Comm: c}, ChaosOptions{Seed: 1, DupProb: 1})
		if err := cc.Send(1, tagStress, []byte("once")); err != nil {
			return err
		}
		if err := cc.Close(); err != nil {
			return fmt.Errorf("a lost duplicate poisoned the endpoint: %w", err)
		}
		if got := cc.Faults().Dups; got != 1 {
			return fmt.Errorf("%d duplicates injected, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosDeterministicFaults re-runs one seed and checks the injected
// fault schedule is identical — the property that makes a failing chaos
// seed replayable.
func TestChaosDeterministicFaults(t *testing.T) {
	run := func() [4]FaultCounts {
		var mu sync.Mutex
		var out [4]FaultCounts
		err := RunWorldChaos(4, benignChaos(99), func(c Comm) error {
			err := batteryCollectives(c)
			cc := c.(*ChaosComm)
			cc.Drain()
			mu.Lock()
			out[c.Rank()] = cc.Faults()
			mu.Unlock()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault schedules diverged across identical runs:\n%+v\n%+v", a, b)
	}
	var total FaultCounts
	for _, f := range a {
		total.Delays += f.Delays
		total.Dups += f.Dups
		total.SendFailures += f.SendFailures
	}
	if total.Delays == 0 || total.Dups == 0 || total.SendFailures == 0 {
		t.Fatalf("chaos config injected nothing: %+v", total)
	}
}
