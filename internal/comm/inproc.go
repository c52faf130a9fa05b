package comm

import "fmt"

// inprocWorld is the in-process transport: p endpoints whose mailboxes live
// in shared memory. Send copies the payload into the destination's mailbox
// (mailbox.go), which holds it until a matching Recv takes it.
type inprocWorld struct {
	eps []*inprocEndpoint
}

func newInprocWorld(p int) *inprocWorld {
	w := &inprocWorld{eps: make([]*inprocEndpoint, p)}
	for r := range w.eps {
		ep := &inprocEndpoint{world: w}
		ep.init(r, p)
		w.eps[r] = ep
	}
	return w
}

// markDead records on every other endpoint that rank r has exited (normally
// or by panic), so Recvs blocked on r fail once its last messages are
// drained instead of hanging forever.
func (w *inprocWorld) markDead(r int) {
	err := fmt.Errorf("rank %d exited", r)
	for _, ep := range w.eps {
		if ep.rank != r {
			ep.fail(r, err)
		}
	}
}

type inprocEndpoint struct {
	mailbox
	world *inprocWorld
}

func (e *inprocEndpoint) Rank() int     { return e.rank }
func (e *inprocEndpoint) Size() int     { return len(e.world.eps) }
func (e *inprocEndpoint) Stats() *Stats { return &e.stats }

func (e *inprocEndpoint) Send(dst, tag int, data []byte) error {
	if err := checkPeer(dst, e.Size()); err != nil {
		return err
	}
	// Copy the payload: the contract says the caller may reuse its buffer,
	// and the receiver runs on another goroutine.
	cp := make([]byte, len(data))
	copy(cp, data)
	e.world.eps[dst].put(e.rank, tag, cp)
	e.stats.recordSend(len(data))
	return nil
}

func (e *inprocEndpoint) Recv(src, tag int) ([]byte, error) { return e.recv(src, tag) }
