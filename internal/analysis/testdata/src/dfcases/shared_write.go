package dfcases

import "repro/internal/par"

// SharedWrite accumulates into a captured scalar from a par.For kernel:
// parforshare must flag the write.
func SharedWrite(xs []float64) float64 {
	var sum float64
	par.For(2, func(chunk int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			sum += xs[i]
		}
	})
	return sum
}
