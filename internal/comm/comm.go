// Package comm is the message-passing substrate of the distributed Louvain
// implementation: a hand-rolled, MPI-flavoured communication layer written
// against the standard library only.
//
// A Comm is one rank's endpoint in a world of Size() ranks. Point-to-point
// messages are byte slices addressed by (destination rank, tag); matching on
// the receive side is by (source rank, tag) with FIFO order per pair, which
// mirrors MPI's non-overtaking guarantee. The collectives are two
// algorithms built on point-to-point, so they work with any transport: the
// personalised all-to-all (overlap.go), which Allgather and Gather reuse
// (collectives.go), and the recursive-doubling allreduce (collectives.go)
// under the fixed-width record reductions (reduce.go). Every collective
// receives on its caller's goroutine, in an order fixed by rank and size.
//
// Two transports are provided, sharing one receive path (mailbox.go):
//
//   - in-process (inproc.go): ranks are goroutines, messages travel through
//     in-memory mailboxes. This is how the simulations and tests run.
//   - TCP (tcp.go): ranks are OS processes connected by a full mesh of TCP
//     connections with length-prefixed frames. This demonstrates the same
//     algorithm code running truly distributed.
//
// Every endpoint keeps traffic statistics (message and byte counts) so the
// experiments can report communication volume exactly.
//
// The layer is fault-aware: failures surface as typed sentinels (ErrPeerDown,
// ErrTimeout, ErrClosed, ErrRetriesExhausted — see errors.go) rather than
// hangs; receives can be deadline-bounded (SetRecvTimeout); dialing retries
// transient errors with seeded exponential backoff (retry.go); and a
// deterministic chaos-injection wrapper (chaos.go) plus a cross-transport
// conformance suite (conformance_test.go) prove those contracts on every CI
// run. docs/ROBUSTNESS.md describes the fault model and how to write chaos
// tests.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Comm is one rank's endpoint in a communicator.
//
// Send never blocks on the receiver (transports buffer internally); Recv
// blocks until a message with the given source and tag arrives. Tags must be
// non-negative; negative tags are reserved for the collectives.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size()).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Send delivers data to rank dst with the given tag. The data slice is
	// not retained; it may be reused after Send returns.
	Send(dst, tag int, data []byte) error
	// Recv blocks until a message from src with the given tag arrives and
	// returns its payload. The payload belongs to the caller: every
	// transport hands over a fresh buffer per message, so it may be
	// modified or retained.
	Recv(src, tag int) ([]byte, error)
	// Stats returns this endpoint's traffic counters.
	Stats() *Stats
}

// Tag-space convention. Receive matching is by (source, tag) only, so the
// tag registry below is the sole thing preventing two concurrent protocols
// from consuming each other's messages:
//
//   - Tags < 0 are reserved for the collectives and are allocated here, in
//     one block, via iota — never ad hoc. tagBarrier and tagBcast belong to
//     the test-only reference collectives (reference_test.go).
//   - Tags >= 0 belong to user code (algorithm phases, experiment
//     harnesses, tests).
//   - Every tag used with Send/Recv must be a named constant with a tag
//     prefix, declared in a registry block like this one, and no two tag
//     constants may share a value. The tagconst analyzer (internal/
//     analysis) enforces the naming in non-test code; TestTagRegistry
//     locks in this block's invariants: distinct values, all negative, one
//     dense iota run.
//
// When adding a collective, append its tag to this block so the iota
// chain keeps the values distinct.
const (
	tagBarrier = -1 - iota
	tagBcast
	tagReduce
	tagAlltoallv
)

// checkPeer rejects a peer rank outside a world of p ranks.
func checkPeer(peer, p int) error {
	if peer < 0 || peer >= p {
		return fmt.Errorf("comm: peer rank %d out of range [0,%d)", peer, p)
	}
	return nil
}

// Stats counts traffic through one endpoint. All methods are safe for
// concurrent use.
type Stats struct {
	msgsSent  atomic.Int64
	msgsRecv  atomic.Int64
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
}

func (s *Stats) recordSend(n int) {
	s.msgsSent.Add(1)
	s.bytesSent.Add(int64(n))
}

func (s *Stats) recordRecv(n int) {
	s.msgsRecv.Add(1)
	s.bytesRecv.Add(int64(n))
}

// Snapshot is a point-in-time copy of an endpoint's counters.
type Snapshot struct {
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
}

// Snapshot returns a copy of the current counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		MsgsSent:  s.msgsSent.Load(),
		MsgsRecv:  s.msgsRecv.Load(),
		BytesSent: s.bytesSent.Load(),
		BytesRecv: s.bytesRecv.Load(),
	}
}

// RunWorld creates an in-process world of p ranks and runs fn once per rank,
// each on its own goroutine. It returns the joined errors of all ranks.
// This is the entry point used by all simulations and tests.
func RunWorld(p int, fn func(Comm) error) error {
	if p < 1 {
		return fmt.Errorf("comm: world size %d, want >= 1", p)
	}
	world := newInprocWorld(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			// Mark the rank dead once fn is finished (or has panicked), so
			// peers blocked on it fail fast instead of deadlocking.
			defer world.markDead(r)
			defer func() {
				if rec := recover(); rec != nil {
					errs[r] = fmt.Errorf("comm: rank %d panicked: %v", r, rec)
				}
			}()
			errs[r] = fn(world.eps[r])
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// WorldStats is the per-rank traffic of a world, one snapshot per rank.
type WorldStats struct {
	PerRank []Snapshot
}

// TotalBytesSent sums sent bytes over all ranks.
func (w WorldStats) TotalBytesSent() int64 {
	var t int64
	for _, s := range w.PerRank {
		t += s.BytesSent
	}
	return t
}

// MaxBytesSent returns the maximum per-rank sent byte count.
func (w WorldStats) MaxBytesSent() int64 {
	var m int64
	for _, s := range w.PerRank {
		if s.BytesSent > m {
			m = s.BytesSent
		}
	}
	return m
}
