package comm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Chaos transport wrapper: a Comm decorator that injects deterministic,
// seeded faults between the algorithm and any real transport. It is the
// testing half of the robustness story — the retry/deadline machinery in
// the transports is only trustworthy because this wrapper can prove, under
// hostile schedules, that the collectives stay bit-identical (benign
// faults) or fail cleanly with typed errors (fatal faults).
//
// Fault classes (all gated by ChaosOptions, all counted in FaultCounts):
//
//   - delay/jitter: a message's delivery is postponed by a random duration
//     up to MaxDelay. Deliveries run on one lane goroutine per (dst, tag)
//     stream, so FIFO per (src, tag) pair — the transport contract — is
//     preserved while different streams overtake each other freely
//     (reordering across pairs).
//   - duplicate delivery: a message is transmitted twice. Every chaos
//     frame carries a per-(src, tag) sequence number; the receiving
//     wrapper drops frames it has already seen, modeling at-least-once
//     delivery with idempotent receipt.
//   - transient send failures: an injected attempt failure recovered by
//     the shared Backoff retry policy (chaosRetry). Exhausted retries
//     become a sticky endpoint error, surfaced on the next operation.
//   - permanent loss: the message is silently never delivered. Combined
//     with receive deadlines, this is the scenario that must end in
//     ErrTimeout on the starved peers, never a hang.
//   - peer death: rank KillRank fails every operation after KillAfter
//     operations with an error wrapping ErrChaosKill, simulating a crash
//     mid-collective; peers then observe ErrPeerDown (or ErrTimeout).
//
// Every endpoint of a world must be wrapped with the same ChaosOptions
// (the sequence header must be speakable on both sides); RunWorldChaos
// does this for in-process worlds. Fault schedules are drawn from a
// per-rank PRNG seeded by (Seed, rank), so a rank's fault sequence is a
// pure function of its operation sequence — rerunning a seed reproduces
// the same chaos.
type ChaosOptions struct {
	// Seed selects the fault schedule; the per-rank stream is derived from
	// it, so worlds with equal seeds draw equal schedules.
	Seed int64

	// DelayProb is the probability a message's delivery is delayed by a
	// uniform duration in (0, MaxDelay]. MaxDelay defaults to 2ms.
	DelayProb float64
	MaxDelay  time.Duration

	// DupProb is the probability a message is delivered twice (the copy is
	// dropped by the receiver's dedup).
	DupProb float64

	// SendFailProb is the per-attempt probability of an injected transient
	// send failure (at most 4 consecutive per message), recovered by
	// chaosRetry.
	SendFailProb float64

	// DropProb is the probability a message is lost permanently.
	DropProb float64

	// KillAfter > 0 arms peer death: rank KillRank fails every operation
	// after its KillAfter-th with an error wrapping ErrChaosKill.
	KillRank  int
	KillAfter int
}

// chaosRetry recovers injected transient send failures: a 1ms base, a 10ms
// cap and a 2s budget outlast any injected burst of at most 4 failures, so
// SendFailProb alone never loses a message.
var chaosRetry = Backoff{base: time.Millisecond, max: 10 * time.Millisecond, Total: 2 * time.Second}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	return o
}

// ErrChaosKill marks operations refused by an injected peer death. It
// wraps nothing: the killed rank is the failure's origin, not a victim of
// a peer, so it deliberately does not match ErrPeerDown.
var ErrChaosKill = fmt.Errorf("chaos: endpoint killed")

// FaultCounts reports how many faults of each class an endpoint injected
// (or, for DupsDropped, absorbed).
type FaultCounts struct {
	Delays       int64
	Dups         int64
	DupsDropped  int64
	SendFailures int64
	Drops        int64
	Killed       bool
}

type pairKey struct{ peer, tag int }

// chaosItem is one scheduled delivery, fully decided at Send time so the
// lane goroutine executes a deterministic script.
type chaosItem struct {
	frame []byte
	delay time.Duration
	dup   bool
	drop  bool
	nFail int
}

// chaosLane delivers the messages of one (dst, tag) stream in order, which
// preserves the per-pair FIFO guarantee while lanes overtake each other.
type chaosLane struct {
	cc       *ChaosComm
	dst, tag int

	mu     sync.Mutex
	nw     *sync.Cond
	q      []chaosItem
	closed bool
	done   chan struct{}
}

// ChaosComm decorates a Comm with fault injection. Construct one per rank
// with NewChaosComm; see ChaosOptions for the fault model.
type ChaosComm struct {
	inner Comm
	opt   ChaosOptions
	stats Stats

	mu       sync.Mutex
	rng      *rand.Rand
	sendSeq  map[pairKey]uint64
	recvSeen map[pairKey]uint64
	lanes    map[pairKey]*chaosLane
	ops      int
	killed   bool
	sticky   error

	pending sync.WaitGroup // undelivered lane items

	delays       atomic.Int64
	dups         atomic.Int64
	dupsDropped  atomic.Int64
	sendFailures atomic.Int64
	drops        atomic.Int64
}

// NewChaosComm wraps inner with the fault model of o. The wrapper adds an
// 8-byte sequence header to every payload, so every rank of the world must
// be wrapped symmetrically.
func NewChaosComm(inner Comm, o ChaosOptions) *ChaosComm {
	o = o.withDefaults()
	cc := &ChaosComm{
		inner:    inner,
		opt:      o,
		sendSeq:  make(map[pairKey]uint64),
		recvSeen: make(map[pairKey]uint64),
		lanes:    make(map[pairKey]*chaosLane),
	}
	// Distinct stream per rank, pure function of (Seed, rank).
	cc.rng = rand.New(rand.NewSource(o.Seed*0x9E3779B9 + int64(inner.Rank())*0x85EBCA6B + 1))
	return cc
}

func (cc *ChaosComm) Rank() int     { return cc.inner.Rank() }
func (cc *ChaosComm) Size() int     { return cc.inner.Size() }
func (cc *ChaosComm) Stats() *Stats { return &cc.stats }

// Faults snapshots the endpoint's injected-fault counters.
func (cc *ChaosComm) Faults() FaultCounts {
	cc.mu.Lock()
	killed := cc.killed
	cc.mu.Unlock()
	return FaultCounts{
		Delays:       cc.delays.Load(),
		Dups:         cc.dups.Load(),
		DupsDropped:  cc.dupsDropped.Load(),
		SendFailures: cc.sendFailures.Load(),
		Drops:        cc.drops.Load(),
		Killed:       killed,
	}
}

// opGate runs the per-operation lifecycle faults: sticky lane errors and
// scheduled death. Every Send/Recv passes through it.
func (cc *ChaosComm) opGate() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.sticky != nil {
		return cc.sticky
	}
	if !cc.killed {
		cc.ops++
		if cc.opt.KillAfter > 0 && cc.inner.Rank() == cc.opt.KillRank && cc.ops > cc.opt.KillAfter {
			cc.killed = true
			trace.Eventf("chaos", "rank %d killed after %d ops", cc.inner.Rank(), cc.ops-1)
		}
	}
	if cc.killed {
		return fmt.Errorf("comm: rank %d: %w", cc.inner.Rank(), ErrChaosKill)
	}
	return nil
}

// setSticky records the first asynchronous delivery failure; every later
// operation on the endpoint fails fast with it.
func (cc *ChaosComm) setSticky(err error) {
	cc.mu.Lock()
	if cc.sticky == nil {
		cc.sticky = err
	}
	cc.mu.Unlock()
}

// Send schedules data for delivery to (dst, tag), drawing this message's
// fault script from the rank's seeded stream. The data slice is copied
// immediately, honoring the Comm reuse contract.
func (cc *ChaosComm) Send(dst, tag int, data []byte) error {
	if err := checkPeer(dst, cc.Size()); err != nil {
		return err
	}
	if err := cc.opGate(); err != nil {
		return err
	}
	key := pairKey{dst, tag}
	cc.mu.Lock()
	cc.sendSeq[key]++
	seq := cc.sendSeq[key]
	it := chaosItem{}
	if cc.opt.DelayProb > 0 && cc.rng.Float64() < cc.opt.DelayProb {
		it.delay = time.Duration(1 + cc.rng.Int63n(int64(cc.opt.MaxDelay)))
	}
	if cc.opt.DupProb > 0 && cc.rng.Float64() < cc.opt.DupProb {
		it.dup = true
	}
	if cc.opt.DropProb > 0 && cc.rng.Float64() < cc.opt.DropProb {
		it.drop = true
	}
	for cc.opt.SendFailProb > 0 && it.nFail < 4 && cc.rng.Float64() < cc.opt.SendFailProb {
		it.nFail++
	}
	lane := cc.lanes[key]
	if lane == nil {
		lane = &chaosLane{cc: cc, dst: dst, tag: tag, done: make(chan struct{})}
		lane.nw = sync.NewCond(&lane.mu)
		cc.lanes[key] = lane
		go lane.run()
	}
	cc.mu.Unlock()

	it.frame = make([]byte, 8+len(data))
	binary.LittleEndian.PutUint64(it.frame[:8], seq)
	copy(it.frame[8:], data)

	cc.pending.Add(1)
	lane.mu.Lock()
	lane.q = append(lane.q, it)
	lane.mu.Unlock()
	lane.nw.Signal()
	cc.stats.recordSend(len(data))
	return nil
}

func (l *chaosLane) run() {
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.nw.Wait()
		}
		if len(l.q) == 0 {
			l.mu.Unlock()
			close(l.done)
			return
		}
		it := l.q[0]
		l.q = l.q[1:]
		l.mu.Unlock()
		l.deliver(it)
		l.cc.pending.Done()
	}
}

// deliver executes one item's fault script: sleep, drop, fail-and-retry,
// duplicate. A delivery that exhausts the retry policy poisons the
// endpoint (sticky error) — the message is gone, so pretending the world
// is healthy would convert the loss into a silent wrong answer.
func (l *chaosLane) deliver(it chaosItem) {
	cc := l.cc
	if it.delay > 0 {
		cc.delays.Add(1)
		time.Sleep(it.delay)
	}
	if it.drop {
		cc.drops.Add(1)
		trace.Eventf("chaos", "rank %d dropped message to %d tag %d", cc.inner.Rank(), l.dst, l.tag)
		return
	}
	remaining := it.nFail
	err := chaosRetry.Retry(fmt.Sprintf("chaos send rank %d -> %d tag %d", cc.inner.Rank(), l.dst, l.tag), func() error {
		if remaining > 0 {
			remaining--
			cc.sendFailures.Add(1)
			return Transient(fmt.Errorf("chaos: injected send failure"))
		}
		//lint:ignore tagconst decorator lane forwards the caller's tag verbatim
		return cc.inner.Send(l.dst, l.tag, it.frame)
	})
	if err != nil {
		cc.setSticky(err)
		return
	}
	if it.dup {
		cc.dups.Add(1)
		// The copy is redundant: the original is already on its way, and a
		// peer that has received it may finish and close before the copy is
		// sent (TCP then reports it down). A lost copy loses nothing, so it
		// does not poison the endpoint.
		//lint:ignore tagconst decorator lane forwards the caller's tag verbatim
		if err := cc.inner.Send(l.dst, l.tag, it.frame); err != nil {
			trace.Eventf("chaos", "rank %d duplicate to %d tag %d not sent: %v", cc.inner.Rank(), l.dst, l.tag, err)
		}
	}
}

// Recv receives the next non-duplicate message from (src, tag), honoring
// the inner transport's deadline configuration.
func (cc *ChaosComm) Recv(src, tag int) ([]byte, error) {
	if err := checkPeer(src, cc.Size()); err != nil {
		return nil, err
	}
	if err := cc.opGate(); err != nil {
		return nil, err
	}
	key := pairKey{src, tag}
	for {
		//lint:ignore tagconst decorator forwards the caller's tag verbatim
		raw, err := cc.inner.Recv(src, tag)
		if err != nil {
			return nil, err
		}
		if len(raw) < 8 {
			return nil, fmt.Errorf("comm: chaos frame from rank %d tag %d too short (%d bytes); is the peer chaos-wrapped?", src, tag, len(raw))
		}
		seq := binary.LittleEndian.Uint64(raw[:8])
		cc.mu.Lock()
		seen := cc.recvSeen[key]
		if seq > seen {
			cc.recvSeen[key] = seq
		}
		cc.mu.Unlock()
		if seq <= seen {
			cc.dupsDropped.Add(1)
			continue
		}
		payload := raw[8:]
		cc.stats.recordRecv(len(payload))
		return payload, nil
	}
}

// SetRecvTimeout forwards the endpoint-wide deadline to the inner
// transport when it supports one.
func (cc *ChaosComm) SetRecvTimeout(d time.Duration) {
	SetRecvTimeout(cc.inner, d)
}

// Drain blocks until every scheduled delivery has run and returns the
// sticky error, if any. Call it before the rank exits (RunWorldChaos does)
// so in-flight delayed messages are not misread by peers as this rank
// dying.
func (cc *ChaosComm) Drain() error {
	cc.pending.Wait()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.sticky
}

// Close drains scheduled deliveries and stops the lane goroutines. It
// returns the sticky delivery error, if any. The inner transport is not
// closed; its owner closes it.
func (cc *ChaosComm) Close() error {
	err := cc.Drain()
	cc.mu.Lock()
	lanes := make([]*chaosLane, 0, len(cc.lanes))
	for _, l := range cc.lanes {
		lanes = append(lanes, l)
	}
	cc.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		l.nw.Broadcast()
	}
	for _, l := range lanes {
		<-l.done
	}
	return err
}

// RunWorldChaos is RunWorld with every rank's endpoint wrapped in a
// ChaosComm configured by o. Each rank's wrapper is drained and closed
// after fn returns, so delayed in-flight messages land before the rank is
// marked dead; a sticky delivery failure surfaces as that rank's error.
func RunWorldChaos(p int, o ChaosOptions, fn func(Comm) error) error {
	return RunWorld(p, func(c Comm) error {
		cc := NewChaosComm(c, o)
		err := fn(cc)
		if cerr := cc.Close(); err == nil {
			err = cerr
		}
		return err
	})
}
