package dfcases

import "repro/internal/par"

// ChunkIndexed writes captured slices only through indexes derived from
// the kernel's parameter (chunk directly, i via the chunk fixpoint):
// parforshare must stay quiet.
func ChunkIndexed(xs []float64) float64 {
	partial := make([]float64, 2)
	out := make([]float64, len(xs))
	par.For(2, func(chunk int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for i := lo; i < hi; i++ {
			out[i] = xs[i] * 2
			partial[chunk] += xs[i]
		}
	})
	return partial[0] + partial[1]
}
