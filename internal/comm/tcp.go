package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/trace"
)

// TCP transport: each rank listens on its own address and keeps one
// connection per peer (the lower rank dials the higher rank). Frames are
// length-prefixed:
//
//	[tag int64][payloadLen uint32][payload]
//
// A reader goroutine per connection demultiplexes frames into the same
// mailbox structure the in-process transport uses; a writer goroutine per
// connection drains an unbounded queue so Send never blocks on TCP
// backpressure (preventing collective deadlock).
//
// Robustness (docs/ROBUSTNESS.md): dialing retries with exponential
// backoff + jitter under a total deadline (DialOptions), handshakes are
// deadline-bounded, transient write timeouts are retried a bounded number
// of times before the peer is declared down, peer-down and closed states
// surface as errors wrapping ErrPeerDown / ErrClosed, and Recv honors the
// endpoint deadline (SetRecvTimeout) so a silent peer becomes ErrTimeout
// instead of a hang.

const tcpHandshakeMagic = uint32(0xC0117EC7)

// DialOptions tunes DialTCPWorldConfig. The zero value selects the
// defaults noted on each field.
type DialOptions struct {
	// Backoff is the per-peer dial retry policy; its Total is the overall
	// dial deadline for that peer. Defaults: Base 10ms, Factor 2, Max
	// 500ms, Total 10s.
	Backoff Backoff
	// HandshakeTimeout bounds the rank-exchange read/write on a freshly
	// established connection. Default 5s.
	HandshakeTimeout time.Duration
	// DrainTimeout bounds how long Close waits for queued frames to flush
	// before force-closing connections. Default 5s.
	DrainTimeout time.Duration
}

func (o DialOptions) withDefaults() DialOptions {
	o.Backoff = o.Backoff.withDefaults()
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// TCPEndpoint is a Comm backed by TCP connections to all peers.
type TCPEndpoint struct {
	rank, size int
	stats      Stats
	opt        DialOptions

	mu       sync.Mutex
	cond     *sync.Cond
	inbox    []inprocMessage
	conns    []*tcpConn // indexed by peer rank; nil at own rank
	peerDown []error    // per-peer transport error (EOF = normal shutdown)
	deadline time.Duration

	listener net.Listener
	closed   bool
}

type tcpConn struct {
	c     net.Conn
	mu    sync.Mutex
	q     [][]byte // pending frames
	nw    *sync.Cond
	done  chan struct{} // closed when the writer goroutine exits
	rdone chan struct{} // closed when the reader goroutine exits
}

func (t *TCPEndpoint) Rank() int     { return t.rank }
func (t *TCPEndpoint) Size() int     { return t.size }
func (t *TCPEndpoint) Stats() *Stats { return &t.stats }

// DialTCPWorld joins a TCP world with default DialOptions. addrs[i] is the
// listen address of rank i; the caller is rank myRank and must be the only
// process using that slot. The function listens, connects the full mesh
// (lower rank dials higher), and returns once all peers are connected.
// Close the endpoint when done.
func DialTCPWorld(myRank int, addrs []string) (*TCPEndpoint, error) {
	return DialTCPWorldConfig(myRank, addrs, DialOptions{})
}

// DialTCPWorldConfig is DialTCPWorld with explicit retry/deadline policy.
// Dials are retried with backoff + jitter while peers start their
// listeners, bounded by o.Backoff.Total; a world that cannot fully connect
// within that budget fails with an error wrapping ErrRetriesExhausted
// rather than hanging.
func DialTCPWorldConfig(myRank int, addrs []string, o DialOptions) (*TCPEndpoint, error) {
	p := len(addrs)
	if myRank < 0 || myRank >= p {
		return nil, fmt.Errorf("comm: rank %d out of range [0,%d)", myRank, p)
	}
	o = o.withDefaults()
	ep := &TCPEndpoint{rank: myRank, size: p, opt: o, conns: make([]*tcpConn, p), peerDown: make([]error, p)}
	ep.cond = sync.NewCond(&ep.mu)

	ln, err := net.Listen("tcp", addrs[myRank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen %s: %w", myRank, addrs[myRank], err)
	}
	ep.listener = ln
	// Bound the accept side by the same total budget as the dial side, so
	// a peer that never dials cannot park the accept goroutine forever.
	if tl, ok := ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(time.Now().Add(o.Backoff.withDefaults().Total))
	}

	var wg sync.WaitGroup
	var connectErr error
	var errOnce sync.Once
	// On the first failure, also close the listener: that unblocks the
	// accept goroutine so the whole dial fails fast instead of wedging in
	// wg.Wait with one goroutine stuck in Accept.
	fail := func(e error) {
		errOnce.Do(func() {
			connectErr = e
			ln.Close()
		})
	}

	// Accept connections from all lower ranks.
	lower := myRank
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < lower; i++ {
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("comm: rank %d accept: %w", myRank, err))
				return
			}
			var hdr [8]byte
			conn.SetReadDeadline(time.Now().Add(o.HandshakeTimeout))
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				conn.Close()
				fail(fmt.Errorf("comm: rank %d handshake read: %w", myRank, err))
				return
			}
			conn.SetReadDeadline(time.Time{})
			if binary.LittleEndian.Uint32(hdr[:4]) != tcpHandshakeMagic {
				conn.Close()
				fail(fmt.Errorf("comm: rank %d bad handshake magic", myRank))
				return
			}
			peer := int(binary.LittleEndian.Uint32(hdr[4:]))
			if peer < 0 || peer >= myRank {
				conn.Close()
				fail(fmt.Errorf("comm: rank %d unexpected peer %d", myRank, peer))
				return
			}
			ep.attach(peer, conn)
		}
	}()

	// Dial all higher ranks, retrying with backoff while their listeners
	// come up. Each peer gets its own jitter stream (seeded by the rank
	// pair) so retries across peers spread out deterministically.
	for peer := myRank + 1; peer < p; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var conn net.Conn
			pol := o.Backoff
			pol.Seed = o.Backoff.Seed ^ int64(myRank)<<20 ^ int64(peer)
			err := pol.Retry(fmt.Sprintf("rank %d dial rank %d (%s)", myRank, peer, addrs[peer]), func() error {
				c, err := net.DialTimeout("tcp", addrs[peer], o.HandshakeTimeout)
				if err != nil {
					// A refused/unreachable dial while the peer boots is the
					// expected transient; keep retrying under the budget.
					return Transient(err)
				}
				conn = c
				return nil
			})
			if err != nil {
				fail(err)
				return
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:4], tcpHandshakeMagic)
			binary.LittleEndian.PutUint32(hdr[4:], uint32(myRank))
			conn.SetWriteDeadline(time.Now().Add(o.HandshakeTimeout))
			if _, err := conn.Write(hdr[:]); err != nil {
				conn.Close()
				fail(fmt.Errorf("comm: rank %d handshake write to %d: %w", myRank, peer, err))
				return
			}
			conn.SetWriteDeadline(time.Time{})
			ep.attach(peer, conn)
		}(peer)
	}
	wg.Wait()
	if connectErr != nil {
		ep.Close()
		return nil, connectErr
	}
	// All peers connected: the accept deadline has served its purpose.
	if tl, ok := ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(time.Time{})
	}
	return ep, nil
}

// attach registers a peer connection and starts its reader/writer loops.
func (t *TCPEndpoint) attach(peer int, c net.Conn) {
	tc := &tcpConn{c: c, done: make(chan struct{}), rdone: make(chan struct{})}
	tc.nw = sync.NewCond(&tc.mu)
	t.mu.Lock()
	t.conns[peer] = tc
	t.mu.Unlock()
	go t.readLoop(peer, tc)
	go t.writeLoop(peer, tc)
}

func (t *TCPEndpoint) readLoop(peer int, tc *tcpConn) {
	defer close(tc.rdone)
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(tc.c, hdr[:]); err != nil {
			t.markPeerDown(peer, err)
			return
		}
		tag := int(int64(binary.LittleEndian.Uint64(hdr[:8])))
		n := binary.LittleEndian.Uint32(hdr[8:])
		payload := make([]byte, n)
		if _, err := io.ReadFull(tc.c, payload); err != nil {
			t.markPeerDown(peer, err)
			return
		}
		t.mu.Lock()
		t.inbox = append(t.inbox, inprocMessage{src: peer, tag: tag, data: payload})
		t.mu.Unlock()
		t.cond.Broadcast()
	}
}

func (t *TCPEndpoint) writeLoop(peer int, tc *tcpConn) {
	defer close(tc.done)
	// Bounded recovery from transient write errors (timeouts under
	// transient backpressure): a handful of quick retries, then the peer
	// is declared down. Retrying forever would turn a dead peer back into
	// a silent hang, which is exactly what this layer must not do.
	pol := Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, MaxAttempts: 4, Total: 250 * time.Millisecond}
	for {
		tc.mu.Lock()
		for len(tc.q) == 0 {
			tc.nw.Wait()
		}
		frame := tc.q[0]
		tc.q = tc.q[1:]
		closing := frame == nil
		tc.mu.Unlock()
		if closing {
			tc.c.Close()
			return
		}
		err := pol.Retry(fmt.Sprintf("rank %d write to rank %d", t.rank, peer), func() error {
			_, werr := tc.c.Write(frame)
			if ne, ok := werr.(net.Error); ok && ne.Timeout() {
				return Transient(werr)
			}
			return werr
		})
		if err != nil {
			t.markPeerDown(peer, err)
			return
		}
	}
}

// markPeerDown records a transport failure (or normal EOF at shutdown) for
// one peer and wakes blocked receivers so Recvs targeting that peer fail.
func (t *TCPEndpoint) markPeerDown(peer int, err error) {
	t.mu.Lock()
	first := t.peerDown[peer] == nil
	if first {
		t.peerDown[peer] = err
	}
	closed := t.closed
	t.mu.Unlock()
	t.cond.Broadcast()
	if first && !closed {
		trace.Eventf("peerdown", "rank %d: peer %d down: %v", t.rank, peer, err)
	}
}

// Send enqueues a frame for dst; it never blocks on the network. Sending
// to a peer whose connection already failed returns an error wrapping
// ErrPeerDown (fail fast: the data could never be delivered).
func (t *TCPEndpoint) Send(dst, tag int, data []byte) error {
	if err := checkPeer(t, dst); err != nil {
		return err
	}
	if dst == t.rank {
		cp := make([]byte, len(data))
		copy(cp, data)
		t.mu.Lock()
		t.inbox = append(t.inbox, inprocMessage{src: t.rank, tag: tag, data: cp})
		t.mu.Unlock()
		t.cond.Broadcast()
		t.stats.recordSend(len(data))
		return nil
	}
	t.mu.Lock()
	tc := t.conns[dst]
	down := t.peerDown[dst]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("comm: rank %d send to %d: %w", t.rank, dst, ErrClosed)
	}
	if down != nil {
		return fmt.Errorf("comm: rank %d peer %d %w: %v", t.rank, dst, ErrPeerDown, down)
	}
	if tc == nil {
		return fmt.Errorf("comm: rank %d has no connection to %d", t.rank, dst)
	}
	frame := make([]byte, 12+len(data))
	binary.LittleEndian.PutUint64(frame[:8], uint64(int64(tag)))
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(data)))
	copy(frame[12:], data)
	tc.mu.Lock()
	tc.q = append(tc.q, frame)
	tc.mu.Unlock()
	tc.nw.Signal()
	t.stats.recordSend(len(data))
	return nil
}

// SetRecvTimeout sets the endpoint-wide default deadline applied to every
// subsequent Recv; d <= 0 restores unbounded blocking.
func (t *TCPEndpoint) SetRecvTimeout(d time.Duration) {
	t.mu.Lock()
	t.deadline = d
	t.mu.Unlock()
}

// Recv blocks until a message from src with the given tag arrives, the
// transport fails (ErrPeerDown), the endpoint is closed (ErrClosed), or
// the endpoint deadline expires (ErrTimeout).
func (t *TCPEndpoint) Recv(src, tag int) ([]byte, error) {
	t.mu.Lock()
	d := t.deadline
	t.mu.Unlock()
	return t.RecvTimeout(src, tag, d)
}

// RecvTimeout is Recv bounded by d (<= 0 blocks without a deadline).
func (t *TCPEndpoint) RecvTimeout(src, tag int, d time.Duration) ([]byte, error) {
	if err := checkPeer(t, src); err != nil {
		return nil, err
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for i := range t.inbox {
			m := t.inbox[i]
			if m.src == src && m.tag == tag {
				t.inbox = append(t.inbox[:i], t.inbox[i+1:]...)
				t.stats.recordRecv(len(m.data))
				return m.data, nil
			}
		}
		// Closed wins over peer-down: Close force-closes the connections,
		// which the readers observe as transport failures and record via
		// markPeerDown — a locally-initiated close must still surface as
		// ErrClosed, not as a phantom peer failure.
		if t.closed {
			return nil, fmt.Errorf("comm: rank %d recv from %d: %w", t.rank, src, ErrClosed)
		}
		if src != t.rank && t.peerDown[src] != nil {
			return nil, fmt.Errorf("comm: rank %d peer %d %w: %v", t.rank, src, ErrPeerDown, t.peerDown[src])
		}
		if waitOrDeadline(t.cond, deadline) {
			return nil, fmt.Errorf("comm: rank %d recv from %d tag %d: no message within %v: %w", t.rank, src, tag, d, ErrTimeout)
		}
	}
}

// Close shuts down the endpoint: the listener stops, queued frames get a
// bounded window (DialOptions.DrainTimeout) to flush, and then every
// connection is force-closed so the per-connection reader and writer
// goroutines exit deterministically — even when a peer has stopped reading
// and a writer is wedged mid-Write. Pending Recv callers are woken and
// fail with ErrClosed. Close is idempotent.
func (t *TCPEndpoint) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*tcpConn, len(t.conns))
	copy(conns, t.conns)
	t.mu.Unlock()
	t.cond.Broadcast()
	if t.listener != nil {
		t.listener.Close()
	}
	for _, tc := range conns {
		if tc == nil {
			continue
		}
		tc.mu.Lock()
		tc.q = append(tc.q, nil) // nil frame = close sentinel
		tc.mu.Unlock()
		tc.nw.Signal()
	}
	// Give the writers a bounded window to drain their queues so frames
	// sent just before Close (e.g. a final gather) reach the peers, then
	// force the connection closed regardless: an unresponsive peer must
	// not leak this endpoint's reader/writer goroutines.
	drain := t.opt.DrainTimeout
	if drain <= 0 {
		drain = 5 * time.Second
	}
	deadline := time.Now().Add(drain)
	for _, tc := range conns {
		if tc == nil {
			continue
		}
		rem := time.Until(deadline)
		if rem < 0 {
			rem = 0 // budget spent: time.After(0) fires immediately
		}
		select {
		case <-tc.done:
		case <-time.After(rem):
		}
		tc.c.Close() // idempotent; unblocks a stuck writer and the reader
	}
	// The readers observe the closed connection promptly; wait for them so
	// Close returning means no goroutine of this endpoint survives.
	for _, tc := range conns {
		if tc == nil {
			continue
		}
		<-tc.rdone
		<-tc.done
	}
	return nil
}
