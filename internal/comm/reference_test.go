package comm

import "fmt"

// Test-only reference implementations. Production runs one alltoall
// (overlapped) and one allreduce (recursive doubling); the simplest possible
// forms of both are kept here, as internal/core keeps merge_seed_test.go, so
// the conformance battery and FuzzAllreduceBytes can assert byte equality
// against them and the benchmarks can keep reporting what overlap buys.

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
