package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs sets GOMAXPROCS to n for the rest of t and restores the previous
// value when t ends.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestChunkSpanCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, Grain, Grain*3 + 1, Grain * MaxChunks * 2} {
		nc := NumChunks(n)
		if nc < 1 || nc > MaxChunks {
			t.Fatalf("NumChunks(%d) = %d out of [1,%d]", n, nc, MaxChunks)
		}
		prev := 0
		for c := 0; c < nc; c++ {
			lo, hi := ChunkSpan(n, nc, c)
			if lo != prev || hi < lo {
				t.Fatalf("n=%d chunk %d: span [%d,%d) not contiguous after %d", n, c, lo, hi, prev)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: chunks cover [0,%d), want [0,%d)", n, prev, n)
		}
	}
}

func TestNumChunksIgnoresWorkerCount(t *testing.T) {
	// The determinism contract: chunk boundaries depend on the data size
	// only. NumChunks takes nothing else, so this pins the signature's
	// intent against a future "helpful" GOMAXPROCS dependence.
	a := NumChunks(10 * Grain)
	setProcs(t, 1)
	if b := NumChunks(10 * Grain); a != b {
		t.Fatalf("NumChunks depends on GOMAXPROCS: %d vs %d", a, b)
	}
}

// TestParFor runs every chunk exactly once, at GOMAXPROCS both smaller and
// larger than the chunk count.
func TestParFor(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		setProcs(t, procs)
		for _, nChunks := range []int{0, 1, 2, 3, 37} {
			hits := make([]atomic.Int32, nChunks)
			var total atomic.Int64
			For(nChunks, func(c int) {
				hits[c].Add(1)
				total.Add(int64(c))
			})
			for c := range hits {
				if got := hits[c].Load(); got != 1 {
					t.Fatalf("procs=%d nChunks=%d: chunk %d ran %d times", procs, nChunks, c, got)
				}
			}
			if want := int64(nChunks * (nChunks - 1) / 2); total.Load() != want {
				t.Fatalf("procs=%d nChunks=%d: total %d, want %d", procs, nChunks, total.Load(), want)
			}
		}
	}
}

// TestParForNilPoolRunsInOrder pins the serial path: at GOMAXPROCS 1 every
// chunk runs inline on the caller, in ascending order.
func TestParForNilPoolRunsInOrder(t *testing.T) {
	setProcs(t, 1)
	var order []int
	For(5, func(c int) { order = append(order, c) })
	for c, got := range order {
		if got != c {
			t.Fatalf("serial For ran chunks %v, want ascending order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("serial For ran %d chunks, want 5", len(order))
	}
}

// TestParForReusable calls For back to back: nothing of one call may leak
// into the next.
func TestParForReusable(t *testing.T) {
	setProcs(t, 4)
	for round := 0; round < 50; round++ {
		var n atomic.Int32
		For(11, func(c int) { n.Add(1) })
		if n.Load() != 11 {
			t.Fatalf("round %d: %d chunks ran, want 11", round, n.Load())
		}
	}
}
