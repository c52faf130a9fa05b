// Package badshare is a negative fixture for the parforshare analyzer:
// par.For kernels and go-closures writing captured state they do not own.
// Kernels may write variables they declare themselves and slots of captured
// slices indexed by values derived from their chunk parameter; everything
// else is a data race or a nondeterministic combine.
package badshare

import "repro/internal/par"

// SharedScalarSum accumulates into a captured scalar from every chunk: a
// data race, and even under a lock the combine order would be the dispatch
// schedule.
func SharedScalarSum(xs []float64) float64 {
	var sum float64
	par.For(2, func(chunk int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for _, x := range xs[lo:hi] {
			sum += x // want parforshare
		}
	})
	return sum
}

// PerChunkSumOK is the control: partials indexed by the chunk parameter,
// combined by the caller in chunk order.
func PerChunkSumOK(xs []float64) float64 {
	partial := make([]float64, 2)
	par.For(2, func(chunk int) {
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
func DerivedIndexOK(out []float64, xs []float64) {
	par.For(2, func(chunk int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			out[i] = xs[i] * 2
		}
	})
}

// FixedSlotWrite writes every chunk's result to the same slot: the slot's
// final value is whichever chunk finished last.
func FixedSlotWrite(out []float64) {
	par.For(2, func(chunk int) {
		out[0] = float64(chunk) // want parforshare
	})
}

// CapturedMapInsert inserts into a captured map: concurrent map writes race
// regardless of key.
func CapturedMapInsert(xs []int) map[int]int {
	counts := make(map[int]int)
	par.For(2, func(chunk int) {
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
func AssignedKernelShared(xs []int) int {
	var total int
	kernel := func(chunk int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			total += xs[i] // want parforshare
		}
	}
	par.For(2, kernel)
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
func LocalStateOK(out []float64, xs []float64) {
	par.For(2, func(chunk int) {
		acc := 0.0
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			acc += xs[i]
		}
		out[chunk] = acc
	})
}
