package comm

import (
	"fmt"
	"sync"
	"time"
)

// mailbox is the receive half both transports embed: the in-process
// endpoint's peers put into it from their Send, the TCP endpoint's reader
// goroutines put the frames they decode. Frames are filed by source, one
// queue per peer; Recv scans only its source's queue for the tag and takes
// the oldest match, so FIFO per (source, tag) pair holds because every put
// appends under the one lock.
//
// A receive decides in one fixed order, re-checked on every wakeup:
//
//  1. a delivered match — so frames a peer sent before it exited or its
//     connection dropped are drained before its failure is reported;
//  2. ErrClosed, once this endpoint was closed locally (TCP's Close
//     force-closes the connections, which the readers report as peer
//     failures — a local close must not surface as a phantom peer one);
//  3. the source's recorded failure, wrapping ErrPeerDown;
//  4. the endpoint deadline (SetRecvTimeout), as ErrTimeout.
type mailbox struct {
	rank  int
	stats Stats

	mu       sync.Mutex
	cond     *sync.Cond
	msgs     [][]message // per source, in put order
	failed   []error     // per-peer failure; nil while the peer is live
	closed   bool
	deadline time.Duration // applied to every Recv; <= 0 blocks without one
}

type message struct {
	tag  int
	data []byte
}

// init readies the mailbox of rank in a world of p ranks. The endpoint
// embedding it must not move afterwards: the condition variable points at
// the mailbox's own lock.
func (m *mailbox) init(rank, p int) {
	m.rank = rank
	m.msgs = make([][]message, p)
	m.failed = make([]error, p)
	m.cond = sync.NewCond(&m.mu)
}

// put delivers one message from src. data is retained, not copied.
func (m *mailbox) put(src, tag int, data []byte) {
	m.mu.Lock()
	m.msgs[src] = append(m.msgs[src], message{tag: tag, data: data})
	m.mu.Unlock()
	m.cond.Broadcast()
}

// fail records that peer src is gone (err says why; io.EOF is a normal
// shutdown) and wakes blocked receivers. Only the first failure of a peer is
// kept. It reports whether this is news: the first failure of src, on an
// endpoint that is still open.
func (m *mailbox) fail(src int, err error) bool {
	m.mu.Lock()
	first := m.failed[src] == nil
	if first {
		m.failed[src] = err
	}
	news := first && !m.closed
	m.mu.Unlock()
	m.cond.Broadcast()
	return news
}

// close marks the endpoint closed and wakes blocked receivers, reporting
// whether this call closed it (false: it already was).
func (m *mailbox) close() bool {
	m.mu.Lock()
	was := m.closed
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
	return !was
}

// sendErr reports why a frame for dst could never be delivered — this
// endpoint is closed, or dst has failed — or nil.
func (m *mailbox) sendErr(dst int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("comm: rank %d send to %d: %w", m.rank, dst, ErrClosed)
	}
	if err := m.failed[dst]; err != nil {
		return fmt.Errorf("comm: rank %d peer %d %w: %v", m.rank, dst, ErrPeerDown, err)
	}
	return nil
}

// SetRecvTimeout sets the endpoint-wide deadline applied to every
// subsequent Recv; d <= 0 restores unbounded blocking.
func (m *mailbox) SetRecvTimeout(d time.Duration) {
	m.mu.Lock()
	m.deadline = d
	m.mu.Unlock()
}

// recv is Recv for both transports: it blocks until a message from src with
// the given tag is delivered, deciding in the order the type comment gives.
func (m *mailbox) recv(src, tag int) ([]byte, error) {
	if err := checkPeer(src, len(m.failed)); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.deadline
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	for {
		q := m.msgs[src]
		for i, msg := range q {
			if msg.tag == tag {
				copy(q[i:], q[i+1:])
				q[len(q)-1] = message{}
				m.msgs[src] = q[:len(q)-1]
				m.stats.recordRecv(len(msg.data))
				return msg.data, nil
			}
		}
		if m.closed {
			return nil, fmt.Errorf("comm: rank %d recv from %d: %w", m.rank, src, ErrClosed)
		}
		if err := m.failed[src]; err != nil {
			return nil, fmt.Errorf("comm: rank %d recv from %d tag %d: %w: %v", m.rank, src, tag, ErrPeerDown, err)
		}
		if waitOrDeadline(m.cond, deadline) {
			return nil, fmt.Errorf("comm: rank %d recv from %d tag %d: no message within %v: %w", m.rank, src, tag, d, ErrTimeout)
		}
	}
}

// Deadline-aware receiving. Recv's contract is to block until a matching
// message arrives or the transport fails — which turns one stalled or
// silently dead peer into a world-wide hang. Both transports (and the chaos
// wrapper) therefore implement RecvDeadliner: an endpoint-wide deadline
// that makes every plain Recv — including the ones issued inside the
// collectives — fail with ErrTimeout once it has waited d with no matching
// message. core.Options.CommDeadline plumbs it through the algorithm
// without touching any call site.

// RecvDeadliner is implemented by endpoints supporting an endpoint-wide
// default receive deadline applied to every subsequent Recv.
type RecvDeadliner interface {
	// SetRecvTimeout sets the default per-Recv deadline; d <= 0 restores
	// unbounded blocking.
	SetRecvTimeout(d time.Duration)
}

// SetRecvTimeout applies a default receive deadline to c if its transport
// supports one, reporting whether it did.
func SetRecvTimeout(c Comm, d time.Duration) bool {
	rd, ok := c.(RecvDeadliner)
	if ok {
		rd.SetRecvTimeout(d)
	}
	return ok
}

// waitOrDeadline parks the caller on cond — whose lock must be held — until
// a broadcast, or reports that the deadline has passed (a zero deadline
// waits indefinitely and always returns false). recv calls it in place of
// cond.Wait and re-checks its predicate on every wakeup, so a spurious timer
// broadcast costs one extra scan, never a lost message.
func waitOrDeadline(cond *sync.Cond, deadline time.Time) bool {
	if deadline.IsZero() {
		cond.Wait()
		return false
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return true
	}
	// The timer callback takes the lock before broadcasting so it cannot
	// fire in the window between the caller's predicate check and its
	// cond.Wait (the caller holds the lock throughout that window).
	t := time.AfterFunc(rem, func() {
		cond.L.Lock()
		cond.Broadcast()
		cond.L.Unlock()
	})
	cond.Wait()
	t.Stop()
	return false
}
