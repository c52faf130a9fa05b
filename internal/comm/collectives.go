package comm

// Collectives built on point-to-point messaging. All ranks of the world must
// call the same collective in the same order (bulk-synchronous usage), as
// with MPI. There are two algorithms: the recursive-doubling allreduce below
// and the personalized all-to-all of overlap.go, which Allgather and Gather
// reuse. The fixed-width record reductions over the allreduce live in
// reduce.go. Both algorithms start no goroutine: each rank's receives run on
// the calling goroutine in an order fixed by (rank, size), so the sequence
// of callbacks and combines is the same on every run and every transport.

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
// rank and identical on all ranks. It is Alltoallv with mine as the frame to
// every peer: each rank sends p−1 messages of len(mine) bytes.
func Allgather(c Comm, mine []byte) ([][]byte, error) {
	out := make([][]byte, c.Size())
	for i := range out {
		out[i] = mine
	}
	return Alltoallv(c, out)
}

// Gather collects every rank's payload at root; non-root ranks return nil.
// It is Alltoallv with only the frame to root non-empty; root's result is
// indexed by rank.
func Gather(c Comm, root int, mine []byte) ([][]byte, error) {
	if err := checkPeer(root, c.Size()); err != nil {
		return nil, err
	}
	out := make([][]byte, c.Size())
	out[root] = mine
	in, err := Alltoallv(c, out)
	if err != nil || c.Rank() != root {
		return nil, err
	}
	return in, nil
}
