package comm

import "fmt"

// Collectives built on point-to-point messaging. All ranks of the world must
// call the same collective in the same order (bulk-synchronous usage), as
// with MPI. The personalized exchanges (Alltoallv, AlltoallvFunc) live in
// overlap.go, the fixed-width record reductions in reduce.go.

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
	if err := checkPeer(c, root); err != nil {
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

// AllreduceBytes combines every rank's payload with a user-supplied
// associative, commutative combine function; every rank returns the same
// combined result. The implementation folds non-power-of-two ranks into the
// largest power-of-two subgroup, runs recursive doubling there, and unfolds.
// combine is always called as combine(accumulated, received) over a tree
// fixed by p alone, so a commutative but non-associative combine (a float
// sum) yields the same bits on every rank and every run; reduce.go relies
// on that.
func AllreduceBytes(c Comm, data []byte, combine func(a, b []byte) []byte) ([]byte, error) {
	p := c.Size()
	if p == 1 {
		return data, nil
	}
	r := c.Rank()
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2
	// Fold: ranks >= pow2 send to (rank - pow2) and wait for the result.
	if r >= pow2 {
		if err := c.Send(r-pow2, tagReduce, data); err != nil {
			return nil, err
		}
		out, err := c.Recv(r-pow2, tagReduce)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	if r < rem {
		other, err := c.Recv(r+pow2, tagReduce)
		if err != nil {
			return nil, err
		}
		data = combine(data, other)
	}
	// Recursive doubling within [0, pow2).
	for mask := 1; mask < pow2; mask <<= 1 {
		partner := r ^ mask
		if err := c.Send(partner, tagReduce, data); err != nil {
			return nil, err
		}
		other, err := c.Recv(partner, tagReduce)
		if err != nil {
			return nil, err
		}
		data = combine(data, other)
	}
	// Unfold.
	if r < rem {
		if err := c.Send(r+pow2, tagReduce, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Allgather collects every rank's payload; the result slice is indexed by
// rank and identical on all ranks. Ring algorithm, p−1 steps.
func Allgather(c Comm, mine []byte) ([][]byte, error) {
	return AllgatherInto(c, mine, nil)
}

// AllgatherInto is Allgather with caller-owned scratch: in (if non-nil)
// must have length Size() and is reused for the result, including in[Rank()]
// for the self copy, so a caller exchanging every iteration allocates
// nothing for the slice header or its own payload. Received buffers come
// from the transport and replace the previous contents of in.
func AllgatherInto(c Comm, mine []byte, in [][]byte) ([][]byte, error) {
	p := c.Size()
	if in == nil {
		in = make([][]byte, p)
	} else if len(in) != p {
		return nil, fmt.Errorf("comm: AllgatherInto needs %d scratch buffers, got %d", p, len(in))
	}
	r := c.Rank()
	in[r] = append(in[r][:0], mine...)
	if p == 1 {
		return in, nil
	}
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	carry := in[r]
	for step := 0; step < p-1; step++ {
		if err := c.Send(next, tagAllgather, carry); err != nil {
			return nil, err
		}
		got, err := c.Recv(prev, tagAllgather)
		if err != nil {
			return nil, err
		}
		srcRank := (r - 1 - step + 2*p) % p
		in[srcRank] = got
		carry = got
	}
	return in, nil
}

// Gather collects every rank's payload at root; non-root ranks return nil.
// The root receives in arrival order — one receiver goroutine per peer —
// so a single slow rank delays only its own slot instead of serializing
// the whole drain; the returned slice is still indexed by rank.
func Gather(c Comm, root int, mine []byte) ([][]byte, error) {
	if err := checkPeer(c, root); err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, c.Send(root, tagGather, mine)
	}
	p := c.Size()
	out := make([][]byte, p)
	cp := make([]byte, len(mine))
	copy(cp, mine)
	out[root] = cp
	if p == 1 {
		return out, nil
	}
	type arrival struct {
		src  int
		data []byte
		err  error
	}
	// Buffered to p−1 so receivers can finish even if we stop consuming,
	// and drained fully below so none outlive the call on the happy path.
	ch := make(chan arrival, p-1)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		go func(r int) {
			got, err := c.Recv(r, tagGather)
			ch <- arrival{src: r, data: got, err: err}
		}(r)
	}
	var firstErr error
	for i := 1; i < p; i++ {
		a := <-ch
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		out[a.src] = a.data
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
