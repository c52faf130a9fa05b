package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
)

// freeAddrs reserves n distinct loopback ports and returns their addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runTCPWorld runs fn on p TCP endpoints within this process (one goroutine
// per "process").
func runTCPWorld(t *testing.T, p int, fn func(Comm) error) error {
	t.Helper()
	addrs := freeAddrs(t, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			ep, err := DialTCPWorld(r, addrs, Backoff{})
			if err != nil {
				errs[r] = err
				return
			}
			defer ep.Close()
			errs[r] = fn(ep)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func TestTCPPointToPoint(t *testing.T) {
	err := runTCPWorld(t, 3, func(c Comm) error {
		for dst := 0; dst < c.Size(); dst++ {
			msg := []byte(fmt.Sprintf("%d->%d", c.Rank(), dst))
			if err := c.Send(dst, 4, msg); err != nil {
				return err
			}
		}
		for src := 0; src < c.Size(); src++ {
			got, err := c.Recv(src, 4)
			if err != nil {
				return err
			}
			want := fmt.Sprintf("%d->%d", src, c.Rank())
			if string(got) != want {
				return fmt.Errorf("got %q, want %q", got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPCollectives(t *testing.T) {
	err := runTCPWorld(t, 4, func(c Comm) error {
		if err := Barrier(c); err != nil {
			return err
		}
		sum, err := AllreduceInt64Sum(c, int64(c.Rank()+1))
		if err != nil {
			return err
		}
		if sum != 10 {
			return fmt.Errorf("sum = %d, want 10", sum)
		}
		got, err := Bcast(c, 0, []byte("hello"))
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("bcast got %q", got)
		}
		out := make([][]byte, c.Size())
		for d := range out {
			out[d] = []byte{byte(c.Rank() * 10), byte(d)}
		}
		in, err := Alltoallv(c, out)
		if err != nil {
			return err
		}
		for s := range in {
			if in[s][0] != byte(s*10) || in[s][1] != byte(c.Rank()) {
				return fmt.Errorf("alltoallv in[%d] = %v", s, in[s])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargeMessages(t *testing.T) {
	const size = 1 << 20
	err := runTCPWorld(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			big := make([]byte, size)
			for i := range big {
				big[i] = byte(i)
			}
			return c.Send(1, 0, big)
		}
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if len(got) != size {
			return fmt.Errorf("len = %d, want %d", len(got), size)
		}
		for i := 0; i < size; i += 4093 {
			if got[i] != byte(i) {
				return fmt.Errorf("byte %d corrupted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPBidirectionalFlood(t *testing.T) {
	// Both ranks send many messages before either receives; the per-conn
	// writer queue must prevent deadlock.
	const n = 200
	err := runTCPWorld(t, 2, func(c Comm) error {
		other := 1 - c.Rank()
		payload := make([]byte, 4096)
		for i := 0; i < n; i++ {
			if err := c.Send(other, i, payload); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv(other, i)
			if err != nil {
				return err
			}
			if len(got) != len(payload) {
				return fmt.Errorf("message %d: len %d", i, len(got))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPInvalidRank(t *testing.T) {
	if _, err := DialTCPWorld(5, []string{"127.0.0.1:0"}, Backoff{}); err == nil {
		t.Fatal("expected error for rank out of range")
	}
}

func TestTCPStats(t *testing.T) {
	err := runTCPWorld(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 64)); err != nil {
				return err
			}
			snap := c.Stats().Snapshot()
			if snap.BytesSent != 64 || snap.MsgsSent != 1 {
				return fmt.Errorf("stats = %+v", snap)
			}
			return nil
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPAbruptPeerDeath(t *testing.T) {
	// A peer that closes its endpoint while others still expect messages
	// must fail their Recvs rather than hang.
	addrs := freeAddrs(t, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ep, err := DialTCPWorld(0, addrs, Backoff{})
		if err != nil {
			errs[0] = err
			return
		}
		// Close immediately without sending anything.
		ep.Close()
	}()
	go func() {
		defer wg.Done()
		ep, err := DialTCPWorld(1, addrs, Backoff{})
		if err != nil {
			errs[1] = err
			return
		}
		defer ep.Close()
		if _, err := ep.Recv(0, 0); err == nil {
			errs[1] = errors.New("Recv from closed peer should fail")
		}
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
