// Package badserver is a negative fixture for the serving-path entry
// points of the resident service: the per-batch reduction of the
// touched-vertex count, AllreduceInt64Sum, is a collective with an error,
// so it carries both the symmetry and the error obligations.
package badserver

import "repro/internal/comm"

// DropTouchedErr drops the drift reduction's error: the rank keeps serving
// with stale drift while its peers may have failed the batch.
func DropTouchedErr(c comm.Comm, touched int64) int64 {
	out, _ := comm.AllreduceInt64Sum(c, touched) // want commerr
	return out
}

// RootOnlyDriftReduce enters the per-batch reduction on rank 0 only —
// the other ranks are back in their command loops and the world wedges.
func RootOnlyDriftReduce(c comm.Comm, touched int64) (int64, error) {
	if c.Rank() == 0 {
		return comm.AllreduceInt64Sum(c, touched) // want collectivesym
	}
	return touched, nil
}

// FireAndForgetUpdate makes the reduction unobservable by construction:
// asymmetric by schedule and its error lost.
func FireAndForgetUpdate(c comm.Comm, touched int64) {
	go comm.AllreduceInt64Sum(c, touched) // want collectivesym commerr
}

// SymmetricOK is the control case: every rank reaches the reduction and
// its error is propagated.
func SymmetricOK(c comm.Comm, touched int64) (int64, error) {
	return comm.AllreduceInt64Sum(c, touched)
}
