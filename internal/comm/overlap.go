package comm

import (
	"fmt"

	"repro/internal/trace"
)

// Personalized all-to-all exchanges. Every exchange posts all p−1 outbound
// frames before waiting on any inbound one — Send never blocks (all
// transports buffer internally) — so the transfers are in flight
// concurrently and a call waits for the slowest peer, not for the sum of
// all peers.
//
// Determinism: results are indexed by source rank, so callers observe the
// same (src, payload) mapping no matter in which order frames arrive. The
// streaming form (AlltoallvFunc) hands payloads to a callback in arrival
// order; that is safe exactly when the callback's effect is independent of
// invocation order (disjoint writes per source rank, or order-insensitive
// combining). docs/PERFORMANCE.md catalogs which core exchanges qualify and
// how the order-sensitive ones (floating-point accumulation) buffer per
// source and apply in rank order.

// Alltoallv performs a personalized all-to-all exchange: out[i] is sent to
// rank i, and the returned slice holds in[i] received from rank i. out must
// have length Size(); out[Rank()] is returned unchanged (copied).
//
// All p−1 sends are posted before the first receive, then peers are
// drained in rank-index order.
func Alltoallv(c Comm, out [][]byte) ([][]byte, error) {
	return AlltoallvInto(c, out, nil)
}

// AlltoallvInto is Alltoallv with caller-owned scratch: in (if non-nil)
// must have length Size() and is reused for the result. in[Rank()] keeps
// its backing array for the self copy, so a caller exchanging every
// iteration allocates nothing for the slice header or its own payload;
// the other slots are replaced by transport buffers.
func AlltoallvInto(c Comm, out, in [][]byte) ([][]byte, error) {
	p := c.Size()
	if len(out) != p {
		return nil, fmt.Errorf("comm: Alltoallv needs %d buffers, got %d", p, len(out))
	}
	if in == nil {
		in = make([][]byte, p)
	} else if len(in) != p {
		return nil, fmt.Errorf("comm: AlltoallvInto needs %d scratch buffers, got %d", p, len(in))
	}
	r := c.Rank()
	in[r] = append(in[r][:0], out[r]...)
	if p == 1 {
		return in, nil
	}
	defer collDone(trace.CollAlltoallv, collStart(), framesLen(out))
	// Post every send up front; the transfers overlap from here on.
	for step := 1; step < p; step++ {
		dst := (r + step) % p
		if err := c.Send(dst, tagAlltoallv, out[dst]); err != nil {
			return nil, err
		}
	}
	for step := 1; step < p; step++ {
		src := (r - step + p) % p
		got, err := c.Recv(src, tagAlltoallv)
		if err != nil {
			return nil, err
		}
		in[src] = got
	}
	return in, nil
}

// AlltoallvFunc is the streaming alltoall: it posts all sends, then hands
// each inbound payload to fn as it arrives, so decode work overlaps
// still-in-flight traffic. fn runs on the calling goroutine only, never
// concurrently with itself. The callback order is: own payload first
// (fn(Rank(), out[Rank()]) before any network wait), then peers in arrival
// order — which varies run to run, so fn's effect must not depend on it.
// The payload slice is only valid during the callback (transport-owned).
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
	defer collDone(trace.CollAlltoallv, collStart(), framesLen(out))
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
