package partition

import (
	"math/bits"

	"repro/internal/par"
)

// scramble is π, the one vertex-id bijection of the partition boundary:
// build emits every Subgraph in π-space and hands every part the tables
// scrambleTables makes (Subgraph.Pi, Subgraph.PiInv), through which
// core.Session maps ids back out and update batches in. π is a pure
// function of n, so both build twins and every process of a TCP world
// compute it from the vertex count alone. It mixes [0, 2^⌈log₂n⌉) with
// xorshift and multiply-by-odd rounds, each invertible there, and
// cycle-walks below n: the range is under 2n, so a walk takes fewer than
// two rounds on average. Owner(π(u), p) reads the low bits of a mixed id,
// so an input whose id order tracks degree, as an unpermuted R-MAT's does,
// no longer hands one rank its heaviest vertices.
type scramble struct {
	n, mask uint64 // mask is 2^k − 1 for the k-bit mixing range
	shift   uint   // xorshift distance, ⌈k/2⌉ and at least 1
}

// MurmurHash3's 64-bit finaliser multipliers.
const scrambleMul1, scrambleMul2 = 0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53

// newScramble returns π on [0, n).
func newScramble(n int) scramble {
	k := uint(bits.Len(uint(max(n, 1) - 1)))
	return scramble{n: uint64(n), mask: 1<<k - 1, shift: max((k+1)/2, 1)}
}

// of returns π(x) for x in [0, n).
//
//perf:noalloc
func (s scramble) of(x int) int {
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

// scrambleTables tabulates π on [0, n) in parallel and derives π⁻¹ from
// it in the same pass: π is a permutation, so every inv entry has one
// writer.
func scrambleTables(n int) (pi, inv []int32) {
	s := newScramble(n)
	pi, inv = make([]int32, n), make([]int32, n)
	nc := par.NumChunks(n)
	par.For(nc, func(c int) {
		lo, hi := par.ChunkSpan(n, nc, c)
		for x := lo; x < hi; x++ {
			y := s.of(x)
			pi[x], inv[y] = int32(y), int32(x)
		}
	})
	return pi, inv
}
