// Package harness holds the pieces of the repository benchmark that are not
// the command line: the four workloads, the span recorder, the metering comm
// decorator, the open-loop scheduler, and the statistics the reports use.
// Every layer of the program is measured from here, from outside, by timing
// calls into its public functions; nothing in this package is imported by
// the program.
package harness

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two middle values for an
// even count). It returns 0 for no samples.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs, 0 for no samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p percent of the samples at or below it.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples:
// ceil(p/100 * n), clamped to 1..n. The small slack keeps 99.9% of 10000
// at 9990 although the product rounds a hair above it.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// SamplesBeyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func SamplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailLadder is the set of percentiles a report may quote as a tail.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer the value is one or two outliers, not a tail.
const minBeyond = 10

// SupportedTail returns the highest percentile of the ladder that has at
// least ten of n samples beyond it, and false when not even the lowest rung
// has (the batch workloads: a few dozen reps support a median and no tail).
func SupportedTail(n int) (float64, bool) {
	for _, p := range tailLadder {
		if SamplesBeyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver uses for its spread check. It needs at least two samples.
func Quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles as a share of the median:
// the run-to-run noise figure every bound is compared with.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
