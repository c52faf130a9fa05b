// Package badcollective is a negative fixture for the collectivesym
// analyzer: collectives reachable only under rank-dependent control flow.
// Each `// want <analyzer>` comment marks an expected finding.
package badcollective

import "repro/internal/comm"

// RootOnlyGather is the textbook SPMD deadlock: rank 0 enters the
// Gather, every other rank returns, and rank 0 blocks forever.
func RootOnlyGather(c comm.Comm) ([][]byte, error) {
	if c.Rank() == 0 {
		return comm.Gather(c, 0, nil) // want collectivesym
	}
	return nil, nil
}

// DerivedRank exercises the dataflow heuristic: the branch condition does
// not call Rank() itself, but holds a value derived from it.
func DerivedRank(c comm.Comm) (float64, error) {
	me := c.Rank()
	lowHalf := me < c.Size()/2
	if lowHalf {
		return comm.AllreduceFloat64Sum(c, 1) // want collectivesym
	}
	return 0, nil
}

// SwitchOnRank covers the switch form of the same bug.
func SwitchOnRank(c comm.Comm) ([][]byte, error) {
	switch c.Rank() {
	case 0:
		return comm.Allgather(c, nil) // want collectivesym
	default:
		return nil, nil
	}
}

// SymmetricOK is the control case: Size() is identical on every rank, so
// branching on it keeps the collective schedule symmetric.
func SymmetricOK(c comm.Comm) error {
	if c.Size() > 1 {
		_, err := comm.AllreduceInt64Sum(c, 1)
		return err
	}
	return nil
}

// RootOnlyStreamingAlltoall covers the overlapped engine (PR 4): the
// streaming exchange is a collective like any other, and only rank 0
// entering it leaves every other rank's frames unanswered.
func RootOnlyStreamingAlltoall(c comm.Comm, out [][]byte) error {
	if c.Rank() == 0 {
		return comm.AlltoallvFunc(c, out, func(src int, payload []byte) error { return nil }) // want collectivesym
	}
	return nil
}

// EvenRanksFusedReduce branches the fused per-iteration reduction on a
// rank-derived value.
func EvenRanksFusedReduce(c comm.Comm) (comm.IterStats, error) {
	me := c.Rank()
	if me%2 == 0 {
		return comm.AllreduceIterStats(c, comm.IterStats{Moved: 1}) // want collectivesym
	}
	return comm.IterStats{}, nil
}
