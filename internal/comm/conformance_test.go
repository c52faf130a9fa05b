package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// Transport conformance suite: one shared battery of contract tests run
// against every transport — inproc, TCP loopback, and both wrapped in the
// chaos decorator under benign (delay/reorder/duplicate/transient-failure)
// fault schedules. The battery asserts the invariants the algorithm layer
// depends on: per-(src, tag) FIFO, tag isolation, bit-identical collective
// results, logical stats accounting, and typed dead-peer errors. Every
// world runs under a watchdog, so a regression that deadlocks fails with a
// goroutine dump instead of hanging the test binary.

// conformanceWatchdog bounds one world's wall time. Generous because the
// race detector plus chaos delays can stretch a run, but far below the
// package test timeout.
const conformanceWatchdog = 30 * time.Second

// transportCase runs fn as rank r of a p-rank world over one transport,
// returning the joined per-rank errors.
type transportCase struct {
	name  string
	chaos bool
	run   func(t *testing.T, p int, fn func(Comm) error) error
}

// benignChaos injects every fault class that must NOT change results:
// delivery delay (reordering across (src, tag) streams), duplicates, and
// transient send failures recovered by retry. No loss, no death.
func benignChaos(seed int64) ChaosOptions {
	return ChaosOptions{
		Seed:         seed,
		DelayProb:    0.25,
		MaxDelay:     300 * time.Microsecond,
		DupProb:      0.15,
		SendFailProb: 0.1,
	}
}

func runInprocChaos(t *testing.T, p int, o ChaosOptions, fn func(Comm) error) error {
	t.Helper()
	return RunWorldChaos(p, o, fn)
}

func runTCPWorldChaos(t *testing.T, p int, o ChaosOptions, fn func(Comm) error) error {
	t.Helper()
	return runTCPWorld(t, p, func(c Comm) error {
		cc := NewChaosComm(c, o)
		err := fn(cc)
		if cerr := cc.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

func conformanceTransports() []transportCase {
	return []transportCase{
		{name: "inproc", run: func(t *testing.T, p int, fn func(Comm) error) error {
			return RunWorld(p, fn)
		}},
		{name: "tcp", run: runTCPWorld},
		{name: "chaos-inproc", chaos: true, run: func(t *testing.T, p int, fn func(Comm) error) error {
			return runInprocChaos(t, p, benignChaos(7), fn)
		}},
		{name: "chaos-tcp", chaos: true, run: func(t *testing.T, p int, fn func(Comm) error) error {
			return runTCPWorldChaos(t, p, benignChaos(7), fn)
		}},
		// Every message delayed: arrivals reorder across sources on nearly
		// every exchange, which a callback order that followed arrival
		// would show.
		{name: "delay-inproc", chaos: true, run: func(t *testing.T, p int, fn func(Comm) error) error {
			return runInprocChaos(t, p, delayOnlyChaos(), fn)
		}},
		{name: "delay-tcp", chaos: true, run: func(t *testing.T, p int, fn func(Comm) error) error {
			return runTCPWorldChaos(t, p, delayOnlyChaos(), fn)
		}},
	}
}

// withWatchdog fails the test with a full goroutine dump if fn does not
// finish within d — the conformance suite's "never deadlocks" teeth.
func withWatchdog(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("watchdog: world still running after %v\n%s", d, buf[:n])
		return nil
	}
}

// payload builds a deterministic, content-checkable message whose length
// varies with its coordinates, so misrouted or truncated frames cannot
// collide with a legitimate one.
func payload(kind string, coords ...int) []byte {
	s := kind
	for _, c := range coords {
		s = fmt.Sprintf("%s/%d", s, c)
	}
	// Variable length exercises framing: 0..63 extra bytes.
	pad := 0
	for _, c := range coords {
		pad = (pad*31 + c + 7) % 64
	}
	b := []byte(s)
	for i := 0; i < pad; i++ {
		b = append(b, byte(i))
	}
	return b
}

// TestConformance runs the shared battery over every transport.
func TestConformance(t *testing.T) {
	const p = 4
	for _, tc := range conformanceTransports() {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("PointToPointFIFO", func(t *testing.T) {
				err := withWatchdog(t, conformanceWatchdog, func() error {
					return tc.run(t, p, batteryPointToPointFIFO)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			t.Run("TagIsolation", func(t *testing.T) {
				err := withWatchdog(t, conformanceWatchdog, func() error {
					return tc.run(t, p, batteryTagIsolation)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			t.Run("Collectives", func(t *testing.T) {
				err := withWatchdog(t, conformanceWatchdog, func() error {
					return tc.run(t, p, batteryCollectives)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			t.Run("FusedRecord", func(t *testing.T) {
				for _, p := range []int{1, 2, 3, 4, 5, 8} {
					err := withWatchdog(t, conformanceWatchdog, func() error {
						return tc.run(t, p, batteryFusedRecord)
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			})
			t.Run("RecvOwnership", func(t *testing.T) {
				err := withWatchdog(t, conformanceWatchdog, func() error {
					return tc.run(t, p, batteryRecvOwnership)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			t.Run("Stats", func(t *testing.T) {
				err := withWatchdog(t, conformanceWatchdog, func() error {
					return tc.run(t, p, batteryStats)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			t.Run("DeadPeer", func(t *testing.T) {
				err := withWatchdog(t, conformanceWatchdog, func() error {
					return tc.run(t, p, batteryDeadPeer)
				})
				if err == nil {
					t.Fatal("expected surviving ranks to fail with ErrPeerDown, got nil")
				}
				if !errors.Is(err, ErrPeerDown) {
					t.Fatalf("expected error wrapping ErrPeerDown, got %v", err)
				}
			})
		})
	}
}

// batteryPointToPointFIFO floods every (dst, tag) pair with numbered
// messages and asserts per-pair arrival order — the transport's
// non-overtaking contract — while different pairs may interleave freely.
func batteryPointToPointFIFO(c Comm) error {
	const rounds = 20
	tags := []int{3, 9}
	p, r := c.Size(), c.Rank()
	for i := 0; i < rounds; i++ {
		for dst := 0; dst < p; dst++ {
			for _, tag := range tags {
				if err := c.Send(dst, tag, payload("fifo", r, dst, tag, i)); err != nil {
					return err
				}
			}
		}
	}
	for src := 0; src < p; src++ {
		for _, tag := range tags {
			for i := 0; i < rounds; i++ {
				got, err := c.Recv(src, tag)
				if err != nil {
					return err
				}
				want := payload("fifo", src, r, tag, i)
				if !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d: fifo violation from %d tag %d round %d: got %q want %q",
						r, src, tag, i, got, want)
				}
			}
		}
	}
	return nil
}

// batteryTagIsolation posts on two tags and receives them in the opposite
// order: matching must be by (src, tag), not arrival order.
func batteryTagIsolation(c Comm) error {
	p, r := c.Size(), c.Rank()
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	if err := c.Send(next, 7, payload("iso", r, 7)); err != nil {
		return err
	}
	if err := c.Send(next, 8, payload("iso", r, 8)); err != nil {
		return err
	}
	for _, tag := range []int{8, 7} { // reverse of send order
		got, err := c.Recv(prev, tag)
		if err != nil {
			return err
		}
		if want := payload("iso", prev, tag); !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d tag %d: got %q want %q", r, tag, got, want)
		}
	}
	return nil
}

// batteryCollectives runs every collective, production and reference (plus
// the scalar wrappers), and compares every result against a locally
// computed expectation,
// byte-for-byte. Under benign chaos this is the bit-identical-results
// guarantee of the conformance suite.
func batteryCollectives(c Comm) error {
	p, r := c.Size(), c.Rank()

	if err := Barrier(c); err != nil {
		return fmt.Errorf("barrier: %w", err)
	}

	root := 1 % p
	var bcastIn []byte
	if r == root {
		bcastIn = payload("bcast", root)
	}
	got, err := Bcast(c, root, bcastIn)
	if err != nil {
		return fmt.Errorf("bcast: %w", err)
	}
	if want := payload("bcast", root); !bytes.Equal(got, want) {
		return fmt.Errorf("bcast: rank %d got %q want %q", r, got, want)
	}

	sumU64 := func(a, b []byte) []byte {
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
		return out
	}
	mine := make([]byte, 8)
	binary.LittleEndian.PutUint64(mine, uint64(r+1))
	wantSum := uint64(p * (p + 1) / 2)
	// Fixed order: both variants share tagAllreduce, so every rank must run
	// them in the same sequence (a map's randomized iteration order here
	// would cross-match the two collectives and deadlock).
	variants := []struct {
		name string
		fn   func(Comm, []byte, func(a, b []byte) []byte) ([]byte, error)
	}{{"allreduce", AllreduceBytes}, {"allreduce-ring", AllreduceBytesRing}}
	for _, v := range variants {
		name, fn := v.name, v.fn
		out, err := fn(c, mine, sumU64)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if got := binary.LittleEndian.Uint64(out); got != wantSum {
			return fmt.Errorf("%s: rank %d got %d want %d", name, r, got, wantSum)
		}
	}

	all, err := Allgather(c, payload("gathered", r))
	if err != nil {
		return fmt.Errorf("allgather: %w", err)
	}
	for i := 0; i < p; i++ {
		if want := payload("gathered", i); !bytes.Equal(all[i], want) {
			return fmt.Errorf("allgather: rank %d slot %d got %q want %q", r, i, all[i], want)
		}
	}

	out := make([][]byte, p)
	for i := 0; i < p; i++ {
		out[i] = payload("a2a", r, i)
	}
	in, err := Alltoallv(c, out)
	if err != nil {
		return fmt.Errorf("alltoallv: %w", err)
	}
	for i := 0; i < p; i++ {
		if want := payload("a2a", i, r); !bytes.Equal(in[i], want) {
			return fmt.Errorf("alltoallv: rank %d from %d got %q want %q", r, i, in[i], want)
		}
	}

	// The test-only sequential reference and the streaming variant share
	// tagAlltoallv with the call above, so — like the allreduce variants —
	// they must run in the same fixed order on every rank. The reference
	// must agree with the production exchange byte-for-byte.
	inSeq, err := AlltoallvSeq(c, out)
	if err != nil {
		return fmt.Errorf("alltoallv-seq: %w", err)
	}
	for i := 0; i < p; i++ {
		if !bytes.Equal(inSeq[i], in[i]) {
			return fmt.Errorf("alltoallv-seq: rank %d from %d got %q want %q", r, i, inSeq[i], in[i])
		}
	}

	// Streaming exchange: every source must be delivered exactly once with
	// the right payload, in the fixed order own payload, r−1, r−2, … mod p,
	// however the transport (or a chaos schedule's delays) orders arrivals.
	outF := make([][]byte, p)
	for i := 0; i < p; i++ {
		outF[i] = payload("alltoallv-func", r, i)
	}
	var order []int
	err = AlltoallvFunc(c, outF, func(src int, pay []byte) error {
		order = append(order, src)
		if want := payload("alltoallv-func", src, r); !bytes.Equal(pay, want) {
			return fmt.Errorf("from %d got %q want %q", src, pay, want)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("alltoallv-func: rank %d: %w", r, err)
	}
	wantOrder := make([]int, p)
	for step := range wantOrder {
		wantOrder[step] = (r - step + p) % p
	}
	if !slices.Equal(order, wantOrder) {
		return fmt.Errorf("alltoallv-func: rank %d callback order %v, want %v", r, order, wantOrder)
	}

	gath, err := Gather(c, 0, payload("root", r))
	if err != nil {
		return fmt.Errorf("gather: %w", err)
	}
	if r == 0 {
		for i := 0; i < p; i++ {
			if want := payload("root", i); !bytes.Equal(gath[i], want) {
				return fmt.Errorf("gather: slot %d got %q want %q", i, gath[i], want)
			}
		}
	}

	fs, err := AllreduceFloat64Sum(c, float64(r+1))
	if err != nil {
		return fmt.Errorf("float64sum: %w", err)
	}
	if fs != float64(p*(p+1)/2) {
		return fmt.Errorf("float64sum: rank %d got %v want %v", r, fs, float64(p*(p+1)/2))
	}
	im, err := allreduceScalar(c, laneMaxI64, uint64(r*r))
	if err != nil {
		return fmt.Errorf("int64max: %w", err)
	}
	if want := uint64((p - 1) * (p - 1)); im != want {
		return fmt.Errorf("int64max: rank %d got %d want %d", r, im, want)
	}
	return nil
}

// batteryFusedRecord is the operand-order proof of the fixed-width record
// reduction, stated once: over seeded float inputs whose sum depends on the
// association (magnitudes spread across thirty decades), every lane of a
// fused record is bit-equal to the one-lane reduction of the same values.
// TestConformance runs it at power-of-two and other world sizes so the fold
// and unfold legs of the reduction tree are covered.
func batteryFusedRecord(c Comm) error {
	p, r := c.Size(), c.Rank()
	rng := rand.New(rand.NewSource(int64(1000*p + r)))
	for round := 0; round < 6; round++ {
		v := IterStats{
			Moved:  rng.Int63n(1 << 40),
			Work:   rng.Int63n(1 << 40),
			CommNS: rng.Int63n(1<<40) - 1<<39,
			Q:      (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-15)),
		}
		var want IterStats
		var work, commNS uint64
		var err error
		if want.Moved, err = AllreduceInt64Sum(c, v.Moved); err != nil {
			return err
		}
		if work, err = allreduceScalar(c, laneMaxI64, uint64(v.Work)); err != nil {
			return err
		}
		if commNS, err = allreduceScalar(c, laneMaxI64, uint64(v.CommNS)); err != nil {
			return err
		}
		want.Work, want.CommNS = int64(work), int64(commNS)
		if want.Q, err = AllreduceFloat64Sum(c, v.Q); err != nil {
			return err
		}
		got, err := AllreduceIterStats(c, v)
		if err != nil {
			return err
		}
		if got.Moved != want.Moved || got.Work != want.Work || got.CommNS != want.CommNS ||
			math.Float64bits(got.Q) != math.Float64bits(want.Q) {
			return fmt.Errorf("iterstats: p=%d rank %d round %d: fused %+v (Q %x), lane by lane %+v (Q %x)",
				p, r, round, got, math.Float64bits(got.Q), want, math.Float64bits(want.Q))
		}
	}
	return nil
}

// batteryLossSafe is the battery for lossy regimes: Barrier, Bcast,
// AllreduceBytes and Alltoallv each use every (src, tag) stream for at most
// one message at p=4, so a dropped message can only starve a Recv (a typed
// ErrTimeout/ErrPeerDown), never shift a multi-message stream and surface
// as a content mismatch. Collectives that reuse a stream are deliberately
// excluded here and covered by the benign regimes: the ring allreduce, and
// Allgather and Gather, which are Alltoallv again on its tag.
func batteryLossSafe(c Comm) error {
	p, r := c.Size(), c.Rank()
	if err := Barrier(c); err != nil {
		return fmt.Errorf("barrier: %w", err)
	}
	root := 1 % p
	var bcastIn []byte
	if r == root {
		bcastIn = payload("bcast", root)
	}
	got, err := Bcast(c, root, bcastIn)
	if err != nil {
		return fmt.Errorf("bcast: %w", err)
	}
	if want := payload("bcast", root); !bytes.Equal(got, want) {
		return fmt.Errorf("bcast: rank %d got %q want %q", r, got, want)
	}
	sumU64 := func(a, b []byte) []byte {
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
		return out
	}
	mine := make([]byte, 8)
	binary.LittleEndian.PutUint64(mine, uint64(r+1))
	red, err := AllreduceBytes(c, mine, sumU64)
	if err != nil {
		return fmt.Errorf("allreduce: %w", err)
	}
	if got, want := binary.LittleEndian.Uint64(red), uint64(p*(p+1)/2); got != want {
		return fmt.Errorf("allreduce: rank %d got %d want %d", r, got, want)
	}
	out := make([][]byte, p)
	for i := 0; i < p; i++ {
		out[i] = payload("a2a", r, i)
	}
	in, err := Alltoallv(c, out)
	if err != nil {
		return fmt.Errorf("alltoallv: %w", err)
	}
	for i := 0; i < p; i++ {
		if want := payload("a2a", i, r); !bytes.Equal(in[i], want) {
			return fmt.Errorf("alltoallv: rank %d from %d got %q want %q", r, i, in[i], want)
		}
	}
	return nil
}

// batteryRecvOwnership pins who owns a payload: Send does not retain the
// caller's buffer, and Recv hands over a buffer of the receiver's own, one
// per message. Every rank sends two messages to every rank on one tag from
// a single buffer it overwrites in between; every receiver overwrites the
// first payload before it takes the second, which must arrive intact.
func batteryRecvOwnership(c Comm) error {
	const tag = 6
	p, r := c.Size(), c.Rank()
	fill := func(b []byte, src, round int) []byte {
		for i := range b {
			b[i] = byte(src*16 + round*8 + i)
		}
		return b
	}
	buf := make([]byte, 32)
	for round := 0; round < 2; round++ {
		fill(buf, r, round)
		for dst := 0; dst < p; dst++ {
			if err := c.Send(dst, tag, buf); err != nil {
				return err
			}
		}
	}
	want := make([]byte, len(buf))
	for src := 0; src < p; src++ {
		first, err := c.Recv(src, tag)
		if err != nil {
			return err
		}
		if !bytes.Equal(first, fill(want, src, 0)) {
			return fmt.Errorf("rank %d: first payload from %d is %v, want %v: the sender's reuse reached it", r, src, first, want)
		}
		for i := range first {
			first[i] = 0xff
		}
		second, err := c.Recv(src, tag)
		if err != nil {
			return err
		}
		if !bytes.Equal(second, fill(want, src, 1)) {
			return fmt.Errorf("rank %d: second payload from %d is %v, want %v: a write to the first reached it", r, src, second, want)
		}
	}
	return nil
}

// batteryStats checks that Stats counts logical application traffic: the
// chaos wrapper's duplicates, retries, and its sequence header must not
// leak into the numbers the algorithm layer reports.
func batteryStats(c Comm) error {
	p, r := c.Size(), c.Rank()
	var wantSentBytes int64
	for dst := 0; dst < p; dst++ {
		if dst == r {
			continue
		}
		msg := payload("stats", r, dst)
		if err := c.Send(dst, 5, msg); err != nil {
			return err
		}
		wantSentBytes += int64(len(msg))
	}
	var wantRecvBytes int64
	for src := 0; src < p; src++ {
		if src == r {
			continue
		}
		got, err := c.Recv(src, 5)
		if err != nil {
			return err
		}
		if want := payload("stats", src, r); !bytes.Equal(got, want) {
			return fmt.Errorf("stats battery: rank %d from %d got %q want %q", r, src, got, want)
		}
		wantRecvBytes += int64(len(got))
	}
	snap := c.Stats().Snapshot()
	if snap.MsgsSent != int64(p-1) || snap.MsgsRecv != int64(p-1) {
		return fmt.Errorf("rank %d: msgs sent/recv = %d/%d, want %d/%d",
			r, snap.MsgsSent, snap.MsgsRecv, p-1, p-1)
	}
	if snap.BytesSent != wantSentBytes || snap.BytesRecv != wantRecvBytes {
		return fmt.Errorf("rank %d: bytes sent/recv = %d/%d, want %d/%d",
			r, snap.BytesSent, snap.BytesRecv, wantSentBytes, wantRecvBytes)
	}
	return nil
}

// batteryDeadPeer has the highest rank exit immediately; every survivor's
// Recv from it must fail with an error wrapping ErrPeerDown — never hang.
func batteryDeadPeer(c Comm) error {
	p, r := c.Size(), c.Rank()
	if r == p-1 {
		return nil // exit without sending; transport marks us dead
	}
	_, err := c.Recv(p-1, 2)
	if err == nil {
		return fmt.Errorf("rank %d: Recv from dead rank %d returned a message", r, p-1)
	}
	if !errors.Is(err, ErrPeerDown) {
		return fmt.Errorf("rank %d: Recv from dead rank %d: got %v, want ErrPeerDown", r, p-1, err)
	}
	return err // propagate so the battery's caller can assert the type
}

// TestChaosMatrix is the seeded robustness sweep: many chaos schedules per
// transport, three fault regimes. Benign regimes must return bit-identical
// collective results; lossy and killing regimes must end in clean typed
// errors under receive deadlines. A final goroutine census catches leaks
// across the whole sweep.
func TestChaosMatrix(t *testing.T) {
	const p = 4
	baseline := runtime.NumGoroutine()

	benignSeeds, lossySeeds, killSeeds := 25, 15, 10
	if testing.Short() {
		benignSeeds, lossySeeds, killSeeds = 5, 3, 2
	}

	transports := []struct {
		name string
		run  func(t *testing.T, p int, o ChaosOptions, fn func(Comm) error) error
	}{
		{"inproc", runInprocChaos},
		{"tcp", runTCPWorldChaos},
	}

	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Run("benign", func(t *testing.T) {
				for seed := int64(1); seed <= int64(benignSeeds); seed++ {
					err := withWatchdog(t, conformanceWatchdog, func() error {
						return tr.run(t, p, benignChaos(seed), batteryCollectives)
					})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
			t.Run("lossy", func(t *testing.T) {
				for seed := int64(1); seed <= int64(lossySeeds); seed++ {
					o := benignChaos(seed)
					o.DropProb = 0.03
					var mu sync.Mutex
					var dropped int64
					err := withWatchdog(t, conformanceWatchdog, func() error {
						return tr.run(t, p, o, func(c Comm) error {
							SetRecvTimeout(c, time.Second)
							err := batteryLossSafe(c)
							if cc, ok := c.(*ChaosComm); ok {
								cc.Drain() // flush scheduled faults so the count below is exact
								mu.Lock()
								dropped += cc.Faults().Drops
								mu.Unlock()
							}
							return err
						})
					})
					mu.Lock()
					nDropped := dropped
					mu.Unlock()
					if nDropped == 0 {
						if err != nil {
							t.Fatalf("seed %d: no drops injected but world failed: %v", seed, err)
						}
						continue
					}
					if err == nil {
						t.Fatalf("seed %d: %d messages dropped but every rank succeeded", seed, nDropped)
					}
					if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrPeerDown) {
						t.Fatalf("seed %d: drops must surface as ErrTimeout/ErrPeerDown, got %v", seed, err)
					}
				}
			})
			t.Run("kill", func(t *testing.T) {
				for seed := int64(1); seed <= int64(killSeeds); seed++ {
					o := ChaosOptions{Seed: seed, KillRank: int(seed) % p, KillAfter: 3 + int(seed)%11}
					err := withWatchdog(t, conformanceWatchdog, func() error {
						return tr.run(t, p, o, func(c Comm) error {
							SetRecvTimeout(c, time.Second)
							return batteryCollectives(c)
						})
					})
					if err == nil {
						t.Fatalf("seed %d: rank %d was killed but world succeeded", seed, o.KillRank)
					}
					if !errors.Is(err, ErrChaosKill) {
						t.Fatalf("seed %d: missing ErrChaosKill from killed rank: %v", seed, err)
					}
					// Survivors must fail cleanly, not hang: any error is one of
					// the three typed outcomes.
					if !typedOnly(err) {
						t.Fatalf("seed %d: untyped survivor error: %v", seed, err)
					}
				}
			})
		})
	}

	waitGoroutines(t, baseline)
}

// typedOnly reports whether every leaf of a joined error is one of the
// sanctioned typed failures (timeout, peer down, chaos kill, closed).
func typedOnly(err error) bool {
	type unwrapper interface{ Unwrap() []error }
	if u, ok := err.(unwrapper); ok {
		for _, e := range u.Unwrap() {
			if !typedOnly(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrPeerDown) ||
		errors.Is(err, ErrChaosKill) || errors.Is(err, ErrClosed)
}

// waitGoroutines polls until the live goroutine count returns to (near)
// baseline, failing with a dump if it does not — the leak detector for the
// whole chaos sweep.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		// Allow slack for runtime/test-framework goroutines that come and go.
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
