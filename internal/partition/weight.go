package partition

import (
	"errors"
	"fmt"
	"math"
)

// Every weight a Subgraph carries — arc weights, weighted degrees and 2m —
// is an int64 count of 2⁻²⁰ units: integer and dyadic weights are exact,
// any other weight rounds once, in Quantise, and every sum formed from the
// units afterwards is exact, whatever the order of its addends.
const weightShift = 20

// MaxWeight2 bounds 2m in fixed-point units (2⁴² in weight units), so a
// Σtot plus a degree fits an int64 and Σ(Σtot)² fits 128 bits.
const MaxWeight2 int64 = 1 << 62

// ErrWeight is wrapped by every error about a weight the fixed point cannot
// carry: NaN, ±Inf, a negative weight, a nonzero weight that rounds to zero,
// and a weight or a 2m past MaxWeight2.
var ErrWeight = errors.New("weight not representable in fixed point")

// Quantise converts weight w to fixed-point units: the one gate on the way
// into a Subgraph, for build and for core.Session.ValidateOps.
func Quantise(w float64) (int64, error) {
	x := w * (1 << weightShift)
	if q := int64(x); uint64(q-1) < uint64(MaxWeight2) && float64(q) == x {
		return q, nil // exact and in range: integer and dyadic weights
	}
	// NaN fails w >= 0 as well as the negatives.
	if !(w >= 0) || w > float64(MaxWeight2>>weightShift) {
		return 0, fmt.Errorf("%w: %v", ErrWeight, w)
	}
	q := int64(math.Round(x))
	if q == 0 && w != 0 {
		return 0, fmt.Errorf("%w: %v rounds to 0 at 2^-%d", ErrWeight, w, weightShift)
	}
	return q, nil
}

// Dequantise converts fixed-point units back to a weight; the conversion is
// exact below 2⁵³ units.
func Dequantise(q int64) float64 { return float64(q) / (1 << weightShift) }

// addWeight returns a+b for two fixed-point totals in [0, MaxWeight2], or
// an ErrWeight error when the sum passes MaxWeight2.
func addWeight(a, b int64) (int64, error) {
	if b > MaxWeight2-a {
		return 0, fmt.Errorf("%w: 2m past %d units", ErrWeight, MaxWeight2)
	}
	return a + b, nil
}
