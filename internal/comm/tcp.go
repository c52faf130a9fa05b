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
// A reader goroutine per connection puts frames into the mailbox the
// in-process transport uses too (mailbox.go); a writer goroutine per
// connection drains an unbounded queue so Send never blocks on TCP
// backpressure (preventing collective deadlock).
//
// Robustness (docs/ROBUSTNESS.md): dialing retries with exponential
// backoff + jitter under a total deadline (the Backoff passed to
// DialTCPWorld), handshakes are deadline-bounded, a failed write declares
// the peer down at once, peer-down and closed states surface as errors
// wrapping ErrPeerDown / ErrClosed, and Recv honors the endpoint deadline
// (SetRecvTimeout) so a silent peer becomes ErrTimeout instead of a hang.

const tcpHandshakeMagic = uint32(0xC0117EC7)

const (
	// handshakeTimeout bounds each dial attempt and the rank exchange on a
	// freshly established connection.
	handshakeTimeout = 5 * time.Second
	// drainTimeout bounds how long Close waits for queued frames to flush
	// before it force-closes the connections.
	drainTimeout = 5 * time.Second
)

// TCPEndpoint is a Comm backed by TCP connections to all peers.
type TCPEndpoint struct {
	mailbox
	// conns is indexed by peer rank (nil at the own rank). Each slot is
	// written once while dialing, before DialTCPWorld returns, and only
	// read afterwards.
	conns    []*tcpConn
	listener net.Listener
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
func (t *TCPEndpoint) Size() int     { return len(t.conns) }
func (t *TCPEndpoint) Stats() *Stats { return &t.stats }

// DialTCPWorld joins a TCP world. addrs[i] is the listen address of rank
// i; the caller is rank myRank and must be the only process using that
// slot. The function listens, connects the full mesh (lower rank dials
// higher), and returns once all peers are connected. Dials are retried
// under b (the zero Backoff takes its defaults) while peers start their
// listeners, bounded by b.Total; a world that cannot fully connect within
// that budget fails with an error wrapping ErrRetriesExhausted rather than
// hanging. Close the endpoint when done.
func DialTCPWorld(myRank int, addrs []string, b Backoff) (*TCPEndpoint, error) {
	p := len(addrs)
	if myRank < 0 || myRank >= p {
		return nil, fmt.Errorf("comm: rank %d out of range [0,%d)", myRank, p)
	}
	b = b.withDefaults()
	ep := &TCPEndpoint{conns: make([]*tcpConn, p)}
	ep.init(myRank, p)

	ln, err := net.Listen("tcp", addrs[myRank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen %s: %w", myRank, addrs[myRank], err)
	}
	ep.listener = ln
	// Bound the accept side by the same total budget as the dial side, so
	// a peer that never dials cannot park the accept goroutine forever.
	if tl, ok := ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(time.Now().Add(b.Total))
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
			conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
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
			pol := b
			pol.seed = b.seed ^ int64(myRank)<<20 ^ int64(peer)
			err := pol.Retry(fmt.Sprintf("rank %d dial rank %d (%s)", myRank, peer, addrs[peer]), func() error {
				c, err := net.DialTimeout("tcp", addrs[peer], handshakeTimeout)
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
			conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
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
	t.conns[peer] = tc
	go t.readLoop(peer, tc)
	go t.writeLoop(peer, tc)
}

func (t *TCPEndpoint) readLoop(peer int, tc *tcpConn) {
	defer close(tc.rdone)
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(tc.c, hdr[:]); err != nil {
			t.peerDown(peer, err)
			return
		}
		tag := int(int64(binary.LittleEndian.Uint64(hdr[:8])))
		n := binary.LittleEndian.Uint32(hdr[8:])
		payload := make([]byte, n)
		if _, err := io.ReadFull(tc.c, payload); err != nil {
			t.peerDown(peer, err)
			return
		}
		t.put(peer, tag, payload)
	}
}

// writeLoop ships tc's queued frames in order. No write deadline is armed
// after the handshake, so a failed Write means the connection is gone: the
// peer is declared down at once, and Recv callers see ErrPeerDown.
func (t *TCPEndpoint) writeLoop(peer int, tc *tcpConn) {
	defer close(tc.done)
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
		if _, err := tc.c.Write(frame); err != nil {
			t.peerDown(peer, err)
			return
		}
	}
}

// peerDown records a transport failure (or normal EOF at shutdown) for one
// peer in the mailbox, tracing it unless the endpoint itself is closing.
func (t *TCPEndpoint) peerDown(peer int, err error) {
	if t.fail(peer, err) {
		trace.Eventf("peerdown", "rank %d: peer %d down: %v", t.rank, peer, err)
	}
}

// Send enqueues a frame for dst; it never blocks on the network. Sending
// to a peer whose connection already failed returns an error wrapping
// ErrPeerDown (fail fast: the data could never be delivered).
func (t *TCPEndpoint) Send(dst, tag int, data []byte) error {
	if err := checkPeer(dst, t.Size()); err != nil {
		return err
	}
	if dst == t.rank {
		cp := make([]byte, len(data))
		copy(cp, data)
		t.put(t.rank, tag, cp)
		t.stats.recordSend(len(data))
		return nil
	}
	if err := t.sendErr(dst); err != nil {
		return err
	}
	tc := t.conns[dst]
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

// Recv blocks until a message from src with the given tag arrives, the
// endpoint is closed (ErrClosed), src's connection fails (ErrPeerDown), or
// the endpoint deadline expires (ErrTimeout).
func (t *TCPEndpoint) Recv(src, tag int) ([]byte, error) { return t.recv(src, tag) }

// Close shuts down the endpoint: the listener stops, queued frames get a
// bounded window (drainTimeout) to flush, and then every connection is
// force-closed so the per-connection reader and writer goroutines exit
// deterministically — even when a peer has stopped reading and a writer is
// wedged mid-Write. Pending Recv callers are woken and fail with ErrClosed.
// Close is idempotent.
func (t *TCPEndpoint) Close() error {
	if !t.close() {
		return nil
	}
	if t.listener != nil {
		t.listener.Close()
	}
	for _, tc := range t.conns {
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
	deadline := time.Now().Add(drainTimeout)
	for _, tc := range t.conns {
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
	for _, tc := range t.conns {
		if tc == nil {
			continue
		}
		<-tc.rdone
		<-tc.done
	}
	return nil
}
