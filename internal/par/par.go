// Package par provides the data-loading pipeline's worker pool and its
// deterministic chunking rules: edge-list parsing and CSR construction in
// internal/graph, partitioning in internal/partition. The solver does not
// use it; it runs one goroutine per rank.
//
// Two rules keep every parallel path bit-identical to its serial
// counterpart, no matter the worker count:
//
//  1. Chunk boundaries are a pure function of the data size — never of the
//     worker count — so the same partial results exist at every Workers
//     setting.
//  2. Partial results are combined on the caller goroutine in ascending
//     chunk order, so floating-point reductions and ordered appends
//     associate identically no matter which worker computed which chunk.
//
// Kernels must not touch a communicator: collectives are matched by
// (source, tag) in program order on a rank's main goroutine, and a
// collective issued from a worker would race that matching (the
// collectivesym analyzer rejects collectives inside ParFor tasks).
package par

import (
	"runtime"
	"sync/atomic"
)

// Grain is the number of items that justify one chunk of parallel work;
// below this the dispatch overhead exceeds the kernel cost.
const Grain = 512

// MaxChunks caps the chunk count (and thereby the per-chunk scratch) of a
// single ParFor.
const MaxChunks = 64

// NumChunks returns the chunk count for n items: a function of the data
// size only, so chunk boundaries are identical at every worker count.
func NumChunks(n int) int {
	nc := n / Grain
	if nc < 1 {
		return 1
	}
	if nc > MaxChunks {
		return MaxChunks
	}
	return nc
}

// ChunkSpan returns the half-open item range [lo, hi) of chunk c out of nc
// over n items. Contiguous, exhaustive, and deterministic.
func ChunkSpan(n, nc, c int) (lo, hi int) {
	return c * n / nc, (c + 1) * n / nc
}

// DefaultWorkers is the automatic worker count for a process hosting
// worldSize rank goroutines: the host's parallelism divided by the world
// size (every rank competes for the same cores), floored at one. Host-global
// phases (ingest, partitioning) pass worldSize = 1.
func DefaultWorkers(worldSize int) int {
	nw := runtime.GOMAXPROCS(0) / worldSize
	if nw < 1 {
		return 1
	}
	if nw > MaxChunks {
		return MaxChunks
	}
	return nw
}

// Pool runs chunked kernels on nw goroutines (the caller participates as
// worker 0, so nw-1 goroutines are spawned). A nil Pool runs everything
// inline; Close releases the goroutines.
type Pool struct {
	nw      int
	kernel  func(chunk, worker int)
	nChunks int
	next    atomic.Int64
	start   chan struct{}
	done    chan struct{}
	quit    chan struct{}
}

// NewPool returns a pool of nw workers, or nil when nw <= 1 (the serial
// path needs no goroutines at all).
func NewPool(nw int) *Pool {
	if nw <= 1 {
		return nil
	}
	p := &Pool{
		nw:    nw,
		start: make(chan struct{}, nw),
		done:  make(chan struct{}, nw),
		quit:  make(chan struct{}),
	}
	for w := 1; w < nw; w++ {
		go p.worker(w)
	}
	return p
}

func (p *Pool) worker(w int) {
	for {
		// Which of quit/start wins the race below never reaches a result:
		// chunk partials are combined by the caller in ascending chunk order,
		// so the dispatch schedule is invisible to the output.
		//lint:ignore nondet worker wake/shutdown arbitration; chunk results combine in chunk order, so schedule order never reaches the output
		select {
		case <-p.quit:
			return
		case <-p.start:
			p.runChunks(w)
			p.done <- struct{}{}
		}
	}
}

// runChunks claims chunks off the shared counter until none remain.
func (p *Pool) runChunks(w int) {
	for {
		c := int(p.next.Add(1)) - 1
		if c >= p.nChunks {
			return
		}
		p.kernel(c, w)
	}
}

// Close stops the worker goroutines. Safe on a nil Pool.
func (p *Pool) Close() {
	if p != nil {
		close(p.quit)
	}
}

// ParFor runs kernel(chunk, worker) for every chunk in [0, nChunks), with
// worker in [0, Workers()). Chunks are claimed dynamically, so the mapping
// of chunk to worker is nondeterministic — kernels must write only
// per-chunk or per-worker state and leave cross-chunk combining to the
// caller (in chunk order, for bit-identical reductions). ParFor returns
// after every chunk has completed. A nil Pool runs the chunks in order on
// the caller.
func (p *Pool) ParFor(nChunks int, kernel func(chunk, worker int)) {
	if p == nil || nChunks <= 1 {
		for c := 0; c < nChunks; c++ {
			kernel(c, 0)
		}
		return
	}
	p.kernel = kernel
	p.nChunks = nChunks
	p.next.Store(0)
	spawned := p.nw - 1
	for w := 0; w < spawned; w++ {
		p.start <- struct{}{}
	}
	p.runChunks(0)
	for w := 0; w < spawned; w++ {
		<-p.done
	}
	p.kernel = nil
}

// Workers returns the worker-index space size of ParFor kernels.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.nw
}
