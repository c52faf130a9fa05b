package comm

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// Fixed-width record reductions. Every scalar and fused reduction of the
// solver is one call of allreduceRecord: the record is a run of 8-byte
// little-endian lanes, each combined by its own operation, shipped as one
// AllreduceBytes frame. Fusing lanes changes neither the reduction tree nor
// a lane's operand order, so a float lane is bit-identical whether it
// travels alone (AllreduceFloat64Sum) or inside a wider record.

// laneOp is how one lane of a reduction record combines across ranks.
type laneOp uint8

const (
	laneSumI64 laneOp = iota
	laneMaxI64
	// laneSumF64 adds accumulated + received, in that operand order.
	laneSumF64
)

// allreduceRecord reduces rec across all ranks in a single collective and
// overwrites it with the world result. rec holds the lanes as raw bits
// (int64 or math.Float64bits); lane i combines by ops[i], and len(ops) ==
// len(rec). Every rank must pass the same ops. A peer frame of any other
// length is an error naming both lengths, never a partial combine.
func allreduceRecord(c Comm, ops []laneOp, rec []uint64) error {
	want := 8 * len(rec)
	buf := wire.NewBuffer(want)
	for _, w := range rec {
		buf.PutU64(w)
	}
	var bad error
	out, err := AllreduceBytes(c, buf.Bytes(), func(a, b []byte) []byte {
		if len(b) != want {
			if bad == nil {
				bad = fmt.Errorf("comm: rank %d: reduction record from a peer is %d bytes, want %d", c.Rank(), len(b), want)
			}
			// Keep forwarding our own well-formed value so no peer blocks
			// on this rank; the error surfaces when the collective ends.
			return a
		}
		ra, rb := wire.NewReader(a), wire.NewReader(b)
		s := wire.NewBuffer(want)
		for i := range rec {
			x, y := ra.U64(), rb.U64()
			switch ops[i] {
			case laneSumI64:
				x += y
			case laneMaxI64:
				if int64(y) > int64(x) {
					x = y
				}
			case laneSumF64:
				x = math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
			}
			s.PutU64(x)
		}
		return s.Bytes()
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	// Ranks folded out of the power-of-two core receive the result without
	// combining, so the final frame is checked too.
	if len(out) != want {
		return fmt.Errorf("comm: rank %d: reduction result is %d bytes, want %d", c.Rank(), len(out), want)
	}
	rd := wire.NewReader(out)
	for i := range rec {
		rec[i] = rd.U64()
	}
	return nil
}

func allreduceScalar(c Comm, op laneOp, bits uint64) (uint64, error) {
	rec := [1]uint64{bits}
	err := allreduceRecord(c, []laneOp{op}, rec[:])
	return rec[0], err
}

// AllreduceFloat64Sum returns the sum of v across all ranks.
func AllreduceFloat64Sum(c Comm, v float64) (float64, error) {
	bits, err := allreduceScalar(c, laneSumF64, math.Float64bits(v))
	return math.Float64frombits(bits), err
}

// AllreduceInt64Sum returns the sum of v across all ranks.
func AllreduceInt64Sum(c Comm, v int64) (int64, error) {
	bits, err := allreduceScalar(c, laneSumI64, uint64(v))
	return int64(bits), err
}

// IterStats is the per-iteration scalar bundle of the stage-1 clustering
// loop, reduced as one collective (one log p latency term instead of
// four). Each field carries its own reduction.
type IterStats struct {
	// Moved is the number of vertices that changed community (world sum).
	Moved int64
	// Work is the simulated work units of the iteration (world max).
	Work int64
	// CommNS is the modeled communication time in ns (world max).
	CommNS int64
	// Q is the modularity contribution (world sum).
	Q float64
}

var iterStatsOps = []laneOp{laneSumI64, laneMaxI64, laneMaxI64, laneSumF64}

// AllreduceIterStats reduces v across all ranks in a single collective.
func AllreduceIterStats(c Comm, v IterStats) (IterStats, error) {
	rec := [4]uint64{uint64(v.Moved), uint64(v.Work), uint64(v.CommNS), math.Float64bits(v.Q)}
	if err := allreduceRecord(c, iterStatsOps, rec[:]); err != nil {
		return IterStats{}, err
	}
	return IterStats{Moved: int64(rec[0]), Work: int64(rec[1]), CommNS: int64(rec[2]), Q: math.Float64frombits(rec[3])}, nil
}
