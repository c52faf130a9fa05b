// Package badshare is a negative fixture for the parforshare analyzer:
// ParFor kernels and go-closures writing captured state they do not own.
// Kernels may write variables they declare themselves and slots of captured
// slices indexed by values derived from their chunk/worker parameters;
// everything else is a data race or a nondeterministic combine.
package badshare

// pool mimics the worker-pool dispatch of internal/par; the analyzer
// matches ParFor by name, so this local stand-in exercises the same
// rules the real pool is checked by.
type pool struct{}

func (p *pool) ParFor(nChunks int, kernel func(chunk, worker int)) {
	for c := 0; c < nChunks; c++ {
		kernel(c, 0)
	}
}

// SharedScalarSum accumulates into a captured scalar from every chunk: a
// data race, and even under a lock the combine order would be the dispatch
// schedule.
func SharedScalarSum(p *pool, xs []float64) float64 {
	var sum float64
	p.ParFor(2, func(chunk, worker int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for _, x := range xs[lo:hi] {
			sum += x // want parforshare
		}
	})
	return sum
}

// PerChunkSumOK is the control: partials indexed by the chunk parameter,
// combined by the caller in chunk order.
func PerChunkSumOK(p *pool, xs []float64) float64 {
	partial := make([]float64, 2)
	p.ParFor(2, func(chunk, worker int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for _, x := range xs[lo:hi] {
			partial[chunk] += x
		}
	})
	return partial[0] + partial[1]
}

// DerivedIndexOK writes through an index the kernel computes from its chunk
// parameter: lo and hi are chunk-derived via the fixpoint, so out[i] with
// i in [lo, hi) is chunk-owned.
func DerivedIndexOK(p *pool, out []float64, xs []float64) {
	p.ParFor(2, func(chunk, worker int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			out[i] = xs[i] * 2
		}
	})
}

// FixedSlotWrite writes every chunk's result to the same slot: the slot's
// final value is whichever chunk finished last.
func FixedSlotWrite(p *pool, out []float64) {
	p.ParFor(2, func(chunk, worker int) {
		out[0] = float64(chunk) // want parforshare
	})
}

// CapturedMapInsert inserts into a captured map: concurrent map writes race
// regardless of key.
func CapturedMapInsert(p *pool, xs []int) map[int]int {
	counts := make(map[int]int)
	p.ParFor(2, func(chunk, worker int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			counts[xs[i]]++ // want parforshare
		}
	})
	return counts
}

// AssignedKernelShared covers the stage-kernel idiom: the literal is built
// in one place, dispatched by name in another, and still must not write
// captured state.
func AssignedKernelShared(p *pool, xs []int) int {
	var total int
	kernel := func(chunk, worker int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			total += xs[i] // want parforshare
		}
	}
	p.ParFor(2, kernel)
	return total
}

// GoClosureCounter covers the plain go-statement form: the closure bumps a
// captured counter.
func GoClosureCounter(n int) int {
	var hits int
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			hits++ // want parforshare
		}
		close(done)
	}()
	<-done
	return hits
}

// LocalStateOK is the control for kernel-owned state: variables the kernel
// declares itself are private no matter how they are written.
func LocalStateOK(p *pool, out []float64, xs []float64) {
	p.ParFor(2, func(chunk, worker int) {
		acc := 0.0
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			acc += xs[i]
		}
		out[chunk] = acc
	})
}
