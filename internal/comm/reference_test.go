package comm

import "fmt"

// Test-only reference implementations. Production runs one alltoall
// (overlapped) and one allreduce (recursive doubling); the simplest possible
// forms of both are kept here, as internal/core keeps merge_seed_test.go, so
// the conformance battery and FuzzAllreduceBytes can assert byte equality
// against them and the benchmarks can keep reporting what overlap buys.
// Barrier and Bcast, which no production code needs, live here too: the
// conformance battery and the chaos matrix drive them on every transport.

// Barrier blocks until every rank has entered it (dissemination barrier,
// ⌈log₂ p⌉ rounds).
func Barrier(c Comm) error {
	p := c.Size()
	for k := 1; k < p; k <<= 1 {
		dst := (c.Rank() + k) % p
		src := (c.Rank() - k%p + p) % p
		if err := c.Send(dst, tagBarrier, nil); err != nil {
			return err
		}
		if _, err := c.Recv(src, tagBarrier); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to every rank via a binomial tree and
// returns it. Non-root ranks pass data=nil (any input on non-roots is
// ignored).
func Bcast(c Comm, root int, data []byte) ([]byte, error) {
	if err := checkPeer(root, c.Size()); err != nil {
		return nil, err
	}
	p := c.Size()
	// Work in a rotated rank space where the root is 0.
	vrank := (c.Rank() - root + p) % p
	if vrank != 0 {
		// Receive from parent: clear the lowest set bit.
		parent := (vrank&(vrank-1) + root) % p
		got, err := c.Recv(parent, tagBcast)
		if err != nil {
			return nil, err
		}
		data = got
	}
	// Forward to children: set each bit above the lowest set bit while in range.
	lowest := vrank & (-vrank)
	if vrank == 0 {
		lowest = 1 << 62
	}
	for bit := 1; bit < p && bit < lowest; bit <<= 1 {
		child := vrank | bit
		if child < p && child != vrank {
			if err := c.Send((child+root)%p, tagBcast, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// AlltoallvSeq is the sequential alltoall: p−1 blocking Send/Recv steps, so
// latency is the sum over peers where Alltoallv pays the maximum. It shares
// tagAlltoallv with the production exchange — each call consumes exactly one
// message per peer stream, so the two can follow each other on one world.
func AlltoallvSeq(c Comm, out [][]byte) ([][]byte, error) {
	p := c.Size()
	if len(out) != p {
		return nil, fmt.Errorf("comm: Alltoallv needs %d buffers, got %d", p, len(out))
	}
	r := c.Rank()
	in := make([][]byte, p)
	in[r] = append([]byte(nil), out[r]...)
	for step := 1; step < p; step++ {
		dst := (r + step) % p
		src := (r - step + p) % p
		if err := c.Send(dst, tagAlltoallv, out[dst]); err != nil {
			return nil, err
		}
		got, err := c.Recv(src, tagAlltoallv)
		if err != nil {
			return nil, err
		}
		in[src] = got
	}
	return in, nil
}

// AllreduceBytesRing is the ring allreduce: each rank forwards the running
// combination around a ring (p−1 steps), then the final value circulates
// once more. O(p) latency against recursive doubling's O(log p), and a
// different combine order — which is what makes it a useful cross-check for
// associative, commutative combines.
func AllreduceBytesRing(c Comm, data []byte, combine func(a, b []byte) []byte) ([]byte, error) {
	p := c.Size()
	if p == 1 {
		return data, nil
	}
	r := c.Rank()
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	// Reduce phase: rank 0 starts; everyone else combines and forwards.
	if r != 0 {
		got, err := c.Recv(prev, tagReduce)
		if err != nil {
			return nil, err
		}
		data = combine(data, got)
	}
	if err := c.Send(next, tagReduce, data); err != nil {
		return nil, err
	}
	// The value arriving next already covers every rank: at rank 0 it comes
	// from the last rank of the reduce phase, elsewhere it is the final
	// value circulating back.
	data, err := c.Recv(prev, tagReduce)
	if err != nil {
		return nil, err
	}
	// The last rank before rank 0 must not send back into rank 0's reduce
	// stream.
	if r != p-1 {
		if err := c.Send(next, tagReduce, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}
