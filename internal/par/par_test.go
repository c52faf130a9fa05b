package par

import (
	"sync/atomic"
	"testing"
)

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
	// intent against a future "helpful" worker parameter.
	if a, b := NumChunks(10*Grain), NumChunks(10*Grain); a != b {
		t.Fatalf("NumChunks not pure: %d vs %d", a, b)
	}
}

func TestDefaultWorkersFloorsAtOne(t *testing.T) {
	if w := DefaultWorkers(1 << 20); w != 1 {
		t.Fatalf("DefaultWorkers(huge world) = %d, want 1", w)
	}
	if w := DefaultWorkers(1); w < 1 || w > MaxChunks {
		t.Fatalf("DefaultWorkers(1) = %d out of [1,%d]", w, MaxChunks)
	}
}

func TestNewPoolSerialIsNil(t *testing.T) {
	for _, nw := range []int{-1, 0, 1} {
		if p := NewPool(nw); p != nil {
			p.Close()
			t.Fatalf("NewPool(%d) != nil", nw)
		}
	}
}

// TestParFor runs every chunk exactly once with in-range worker indexes,
// for pools both smaller and larger than the chunk count.
func TestParFor(t *testing.T) {
	for _, nw := range []int{1, 2, 3, 8} {
		pool := NewPool(nw)
		for _, nChunks := range []int{1, 2, 3, 37} {
			hits := make([]atomic.Int32, nChunks)
			var total atomic.Int64
			pool.ParFor(nChunks, func(c, w int) {
				if w < 0 || w >= pool.Workers() {
					t.Errorf("nw=%d: worker index %d out of [0,%d)", nw, w, pool.Workers())
				}
				hits[c].Add(1)
				total.Add(int64(c))
			})
			for c := range hits {
				if got := hits[c].Load(); got != 1 {
					t.Fatalf("nw=%d nChunks=%d: chunk %d ran %d times", nw, nChunks, c, got)
				}
			}
			if want := int64(nChunks * (nChunks - 1) / 2); total.Load() != want {
				t.Fatalf("nw=%d nChunks=%d: total %d, want %d", nw, nChunks, total.Load(), want)
			}
		}
		pool.Close()
	}
}

func TestParForNilPoolRunsInOrder(t *testing.T) {
	var pool *Pool
	var order []int
	pool.ParFor(5, func(c, w int) {
		if w != 0 {
			t.Fatalf("nil pool worker index %d, want 0", w)
		}
		order = append(order, c)
	})
	for c, got := range order {
		if got != c {
			t.Fatalf("nil pool ran chunks %v, want ascending order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("nil pool ran %d chunks, want 5", len(order))
	}
	pool.Close() // nil-safe
	if pool.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", pool.Workers())
	}
}

func TestParForReusable(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for round := 0; round < 50; round++ {
		var n atomic.Int32
		pool.ParFor(11, func(c, w int) { n.Add(1) })
		if n.Load() != 11 {
			t.Fatalf("round %d: %d chunks ran, want 11", round, n.Load())
		}
	}
}
