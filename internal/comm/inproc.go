package comm

import (
	"fmt"
	"sync"
	"time"
)

// inprocWorld is the in-process transport: p endpoints whose mailboxes live
// in shared memory. Each endpoint owns an unbounded mailbox protected by a
// mutex and condition variable; Send appends to the destination's mailbox,
// Recv waits for the first message matching (src, tag). FIFO order per
// (src, tag) pair is guaranteed because Send appends under the same lock.
type inprocWorld struct {
	eps []*inprocEndpoint
}

func newInprocWorld(p int) *inprocWorld {
	w := &inprocWorld{eps: make([]*inprocEndpoint, p)}
	for r := 0; r < p; r++ {
		ep := &inprocEndpoint{rank: r, world: w, dead: make([]bool, p)}
		ep.cond = sync.NewCond(&ep.mu)
		w.eps[r] = ep
	}
	return w
}

func (w *inprocWorld) endpoint(r int) *inprocEndpoint { return w.eps[r] }

// markDead records that rank r has exited (normally or by panic) and wakes
// every endpoint so Recvs blocked on r fail instead of hanging forever.
func (w *inprocWorld) markDead(r int) {
	for _, ep := range w.eps {
		ep.mu.Lock()
		ep.dead[r] = true
		ep.mu.Unlock()
		ep.cond.Broadcast()
	}
}

type inprocMessage struct {
	src, tag int
	data     []byte
}

type inprocEndpoint struct {
	rank  int
	world *inprocWorld
	stats Stats

	mu       sync.Mutex
	cond     *sync.Cond
	inbox    []inprocMessage
	dead     []bool // peers that exited; Recv from them fails instead of hanging
	deadline time.Duration
}

func (e *inprocEndpoint) Rank() int     { return e.rank }
func (e *inprocEndpoint) Size() int     { return len(e.world.eps) }
func (e *inprocEndpoint) Stats() *Stats { return &e.stats }

func (e *inprocEndpoint) Send(dst, tag int, data []byte) error {
	if err := checkPeer(e, dst); err != nil {
		return err
	}
	// Copy the payload: the contract says the caller may reuse its buffer,
	// and the receiver runs on another goroutine.
	cp := make([]byte, len(data))
	copy(cp, data)
	peer := e.world.eps[dst]
	peer.mu.Lock()
	peer.inbox = append(peer.inbox, inprocMessage{src: e.rank, tag: tag, data: cp})
	peer.mu.Unlock()
	peer.cond.Broadcast()
	e.stats.recordSend(len(data))
	return nil
}

// SetRecvTimeout sets the endpoint-wide default deadline applied to every
// subsequent Recv; d <= 0 restores unbounded blocking.
func (e *inprocEndpoint) SetRecvTimeout(d time.Duration) {
	e.mu.Lock()
	e.deadline = d
	e.mu.Unlock()
}

func (e *inprocEndpoint) Recv(src, tag int) ([]byte, error) {
	e.mu.Lock()
	d := e.deadline
	e.mu.Unlock()
	return e.RecvTimeout(src, tag, d)
}

// RecvTimeout is Recv bounded by d (<= 0 blocks without a deadline).
func (e *inprocEndpoint) RecvTimeout(src, tag int, d time.Duration) ([]byte, error) {
	if err := checkPeer(e, src); err != nil {
		return nil, err
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		for i := range e.inbox {
			m := e.inbox[i]
			if m.src == src && m.tag == tag {
				e.inbox = append(e.inbox[:i], e.inbox[i+1:]...)
				e.stats.recordRecv(len(m.data))
				return m.data, nil
			}
		}
		if src != e.rank && e.dead[src] {
			return nil, fmt.Errorf("comm: rank %d exited; rank %d cannot receive tag %d from it: %w", src, e.rank, tag, ErrPeerDown)
		}
		if waitOrDeadline(e.cond, deadline) {
			return nil, fmt.Errorf("comm: rank %d recv from %d tag %d: no message within %v: %w", e.rank, src, tag, d, ErrTimeout)
		}
	}
}
