package partition

import (
	"math/bits"

	"repro/internal/par"
)

// Scramble is π, the one vertex-id bijection of the partition boundary:
// build emits every Subgraph in π-space, and core.Session maps ids back
// with Inv and update batches in with Of. π is a pure function of n, so
// both build twins and every process of a TCP world compute it from the
// vertex count alone. It mixes [0, 2^⌈log₂n⌉) with xorshift and
// multiply-by-odd rounds, each invertible there, and cycle-walks below n:
// the range is under 2n, so a walk takes fewer than two rounds on average.
// Owner(π(u), p) reads the low bits of a mixed id, so an input whose id
// order tracks degree, as an unpermuted R-MAT's does, no longer hands one
// rank its heaviest vertices.
type Scramble struct {
	n, mask uint64 // mask is 2^k − 1 for the k-bit mixing range
	shift   uint   // xorshift distance, ⌈k/2⌉ and at least 1
}

// MurmurHash3's 64-bit finaliser multipliers and their inverses modulo
// 2^64, which stay inverses modulo 2^k.
const (
	scrambleMul1, scrambleInv1 = 0xff51afd7ed558ccd, 0x4f74430c22a54005
	scrambleMul2, scrambleInv2 = 0xc4ceb9fe1a85ec53, 0x9cb4b2f8129337db
)

// NewScramble returns π on [0, n).
func NewScramble(n int) Scramble {
	k := uint(bits.Len(uint(max(n, 1) - 1)))
	return Scramble{n: uint64(n), mask: 1<<k - 1, shift: max((k+1)/2, 1)}
}

// Of returns π(x) for x in [0, n).
//
//perf:noalloc
func (s Scramble) Of(x int) int {
	y := uint64(x)
	for {
		y ^= y >> s.shift
		y = y * scrambleMul1 & s.mask
		y ^= y >> s.shift
		y = y * scrambleMul2 & s.mask
		y ^= y >> s.shift
		if y < s.n {
			return int(y)
		}
	}
}

// Inv returns π⁻¹(y) for y in [0, n).
//
//perf:noalloc
func (s Scramble) Inv(y int) int {
	x := uint64(y)
	for {
		x = s.unshift(x) * scrambleInv2 & s.mask
		x = s.unshift(x) * scrambleInv1 & s.mask
		x = s.unshift(x)
		if x < s.n {
			return int(x)
		}
	}
}

// unshift inverts y ^= y >> shift.
func (s Scramble) unshift(y uint64) uint64 {
	x := y
	for t := y >> s.shift; t != 0; t >>= s.shift {
		x ^= t
	}
	return x
}

// table returns π as an n-entry table: build maps every arc target, and a
// lookup is cheaper than a mix.
func (s Scramble) table() []int32 { return s.fill(s.Of) }

// InvTable returns π⁻¹ as an n-entry table: core.Session maps every id it
// reports back through it.
func (s Scramble) InvTable() []int32 { return s.fill(s.Inv) }

// fill tabulates f over [0, n) in parallel.
func (s Scramble) fill(f func(int) int) []int32 {
	n := int(s.n)
	t := make([]int32, n)
	nc := par.NumChunks(n)
	par.For(nc, func(c int) {
		lo, hi := par.ChunkSpan(n, nc, c)
		for x := lo; x < hi; x++ {
			t[x] = int32(f(x))
		}
	})
	return t
}
