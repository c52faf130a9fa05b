package comm

import "fmt"

// Personalized all-to-all exchange. AlltoallvFunc is the one receive loop:
// it posts all p−1 outbound frames before waiting on any inbound one — Send
// never blocks (all transports buffer internally) — so the transfers are in
// flight concurrently and a call waits for the slowest peer, not for the
// sum of all peers.
//
// Determinism: every payload is handed over with its source rank, so callers
// observe the same (src, payload) mapping no matter in which order frames
// arrive. The callback runs in arrival order; that is safe exactly when its
// effect is independent of invocation order (disjoint writes per source
// rank, or order-insensitive combining). A caller that must read the frames
// in rank order uses Alltoallv, which collects them indexed by source.
// docs/PERFORMANCE.md catalogs which core exchanges qualify.

// Alltoallv performs a personalized all-to-all exchange: out[i] is sent to
// rank i, and the returned slice holds in[i] received from rank i. out must
// have length Size(); in[Rank()] is a copy of out[Rank()].
func Alltoallv(c Comm, out [][]byte) ([][]byte, error) {
	in := make([][]byte, c.Size())
	err := AlltoallvFunc(c, out, func(src int, payload []byte) error {
		if src == c.Rank() {
			payload = append([]byte(nil), payload...)
		}
		in[src] = payload
		return nil
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// AlltoallvFunc is the streaming alltoall: it posts all sends, then hands
// each inbound payload to fn as it arrives, so decode work overlaps
// still-in-flight traffic. fn runs on the calling goroutine only, never
// concurrently with itself. The callback order is: own payload first
// (fn(Rank(), out[Rank()]) before any network wait), then peers in arrival
// order — which varies run to run, so fn's effect must not depend on it.
// A peer's payload is read-only and may be retained: each transport hands
// over a buffer of its own per message (the in-process one copies on Send,
// TCP allocates one per frame). The own payload is out[Rank()] itself.
//
// If fn returns an error, remaining payloads are drained without further
// callbacks and the first error is returned.
func AlltoallvFunc(c Comm, out [][]byte, fn func(src int, payload []byte) error) error {
	p := c.Size()
	if len(out) != p {
		return fmt.Errorf("comm: AlltoallvFunc needs %d buffers, got %d", p, len(out))
	}
	r := c.Rank()
	if p == 1 {
		return fn(r, out[r])
	}
	for step := 1; step < p; step++ {
		dst := (r + step) % p
		if err := c.Send(dst, tagAlltoallv, out[dst]); err != nil {
			return err
		}
	}
	// Own payload first: a fixed, deterministic position in the callback
	// sequence, and useful decode work before the first frame lands.
	firstErr := fn(r, out[r])
	type arrival struct {
		src  int
		data []byte
		err  error
	}
	// Buffered to p−1 so receivers never block on the channel: an early
	// callback error cannot leak them, and the drain loop below always
	// consumes all p−1 entries.
	ch := make(chan arrival, p-1)
	for step := 1; step < p; step++ {
		src := (r - step + p) % p
		go func(src int) {
			got, err := c.Recv(src, tagAlltoallv)
			ch <- arrival{src: src, data: got, err: err}
		}(src)
	}
	for i := 1; i < p; i++ {
		a := <-ch
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		if firstErr != nil {
			continue // drain without decoding after a failure
		}
		if err := fn(a.src, a.data); err != nil {
			firstErr = err
		}
	}
	return firstErr
}
