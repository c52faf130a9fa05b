// Package par provides the data-loading pipeline's parallel-for and its
// deterministic chunking rules: the .sbin decode and writer in
// internal/graph, partitioning and the π tables in internal/partition. The
// text readers and the CSR builder are serial, and so is the solver, which
// runs one goroutine per rank.
//
// Two rules keep every parallel path bit-identical to its serial
// counterpart, no matter how many goroutines run:
//
//  1. Chunk boundaries are a pure function of the data size — never of
//     GOMAXPROCS — so the same partial results exist on every host.
//  2. Partial results are combined on the caller goroutine in ascending
//     chunk order, so floating-point reductions and ordered appends
//     associate identically no matter which goroutine computed which chunk.
//
// Kernels must not touch a communicator: collectives are matched by
// (source, tag) in program order on a rank's main goroutine, and a
// collective issued from a kernel would race that matching (the
// collectivesym analyzer rejects collectives inside For kernels).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Grain is the number of items that justify one chunk of parallel work;
// below this the dispatch overhead exceeds the kernel cost.
const Grain = 512

// maxChunks caps the chunk count (and thereby the per-chunk scratch) of a
// single For.
const maxChunks = 64

// NumChunks returns the chunk count for n items: a function of the data
// size only, so chunk boundaries are identical on every host.
func NumChunks(n int) int {
	nc := n / Grain
	if nc < 1 {
		return 1
	}
	if nc > maxChunks {
		return maxChunks
	}
	return nc
}

// ChunkSpan returns the half-open item range [lo, hi) of chunk c out of nc
// over n items. Contiguous, exhaustive, and deterministic.
func ChunkSpan(n, nc, c int) (lo, hi int) {
	return c * n / nc, (c + 1) * n / nc
}

// For runs kernel(chunk) for every chunk in [0, nChunks) on
// min(GOMAXPROCS, nChunks) goroutines, the caller among them, and returns
// once every chunk has completed. Chunks are claimed from a shared counter,
// so which goroutine runs which chunk is unspecified: kernels write only
// per-chunk state and leave combining to the caller, in chunk order. With
// one goroutine the chunks run inline in ascending order.
func For(nChunks int, kernel func(chunk int)) {
	var next atomic.Int64
	claim := func() {
		for c := int(next.Add(1)) - 1; c < nChunks; c = int(next.Add(1)) - 1 {
			kernel(c)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), nChunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
