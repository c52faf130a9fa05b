package comm

import "fmt"

// Personalized all-to-all exchange. AlltoallvFunc is the one receive loop:
// it posts all p−1 outbound frames before waiting on any inbound one — Send
// never blocks (all transports buffer internally) — so the transfers are in
// flight concurrently and a call waits for the slowest peer, not for the
// sum of all peers. It then receives on the calling goroutine, one peer
// after another in a fixed order.
//
// Determinism: every payload is handed over with its source rank, and the
// callback order is a function of (rank, size) alone. The core exchanges do
// not lean on that order: their callbacks are independent of invocation
// order (disjoint writes per source rank, or order-insensitive combining),
// so the ring order below is a choice, not a contract they need.
// docs/PERFORMANCE.md catalogs why each core exchange qualifies. A caller
// that must read the frames in rank order uses Alltoallv, which collects
// them indexed by source.

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
// each inbound payload to fn, so decode work overlaps still-in-flight
// traffic. fn runs on the calling goroutine, which does every receive
// itself. The callback order is fixed: own payload first (fn(Rank(),
// out[Rank()]) before any network wait), then rank r−1, r−2, … mod p, the
// order in which the ring of sends reaches this rank. A peer's payload is
// read-only and may be retained: each transport hands over a buffer of its
// own per message (the in-process one copies on Send, TCP allocates one per
// frame). The own payload is out[Rank()] itself.
//
// The first error, from a receive or from fn, ends the exchange and is
// returned; frames not yet received stay in the mailbox.
func AlltoallvFunc(c Comm, out [][]byte, fn func(src int, payload []byte) error) error {
	p := c.Size()
	if len(out) != p {
		return fmt.Errorf("comm: AlltoallvFunc needs %d buffers, got %d", p, len(out))
	}
	r := c.Rank()
	for step := 1; step < p; step++ {
		dst := (r + step) % p
		if err := c.Send(dst, tagAlltoallv, out[dst]); err != nil {
			return err
		}
	}
	if err := fn(r, out[r]); err != nil {
		return err
	}
	for step := 1; step < p; step++ {
		src := (r - step + p) % p
		got, err := c.Recv(src, tagAlltoallv)
		if err != nil {
			return err
		}
		if err := fn(src, got); err != nil {
			return err
		}
	}
	return nil
}
