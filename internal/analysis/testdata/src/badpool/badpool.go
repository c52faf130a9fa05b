// Package badpool is a negative fixture for the collectivesym analyzer's
// async rule: comm collectives issued off the rank's main goroutine, from
// inside a par.For kernel or a goroutine. The communicator matches messages
// by (source, tag) in program order on the rank's goroutine, so these race
// the matching even when every rank reaches the collective. Errors are
// captured (not dropped) so commerr stays quiet and the collectivesym
// findings are isolated.
package badpool

import (
	"repro/internal/comm"
	"repro/internal/par"
)

// AllgatherInTask puts a collective inside a par.For kernel: with more than
// one goroutine the Allgather's point-to-point traffic interleaves with
// whatever the main goroutine posts next.
func AllgatherInTask(c comm.Comm) error {
	errs := make([]error, 4)
	par.For(4, func(chunk int) {
		_, errs[chunk] = comm.Allgather(c, nil) // want collectivesym
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReduceInTask covers a value-returning collective in a kernel.
func ReduceInTask(c comm.Comm) ([]float64, error) {
	sums := make([]float64, 2)
	errs := make([]error, 2)
	par.For(2, func(chunk int) {
		sums[chunk], errs[chunk] = comm.AllreduceFloat64Sum(c, float64(chunk)) // want collectivesym
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// AllgatherInGoroutine covers the plain go-statement form of the same bug.
func AllgatherInGoroutine(c comm.Comm) error {
	done := make(chan error, 1)
	go func() {
		_, err := comm.Allgather(c, nil) // want collectivesym
		done <- err
	}()
	return <-done
}

// TaskThenCollectiveOK is the control case: the kernel does pure compute
// and the collective runs on the main goroutine after par.For returns.
func TaskThenCollectiveOK(c comm.Comm, xs []float64) (float64, error) {
	partial := make([]float64, 2)
	par.For(2, func(chunk int) {
		lo, hi := chunk*len(xs)/2, (chunk+1)*len(xs)/2
		for _, x := range xs[lo:hi] {
			partial[chunk] += x
		}
	})
	return comm.AllreduceFloat64Sum(c, partial[0]+partial[1])
}

// StreamingAlltoallInGoroutine covers the overlapped engine (PR 4) in a
// go literal: AlltoallvFunc itself manages receiver goroutines internally,
// but the call must still be issued from the rank's main goroutine.
func StreamingAlltoallInGoroutine(c comm.Comm, out [][]byte) error {
	done := make(chan error, 1)
	go func() {
		done <- comm.AlltoallvFunc(c, out, func(src int, payload []byte) error { return nil }) // want collectivesym
	}()
	return <-done
}

// FusedReduceInTask puts the fused per-iteration reduction inside a
// par.For kernel.
func FusedReduceInTask(c comm.Comm) error {
	errs := make([]error, 2)
	par.For(2, func(chunk int) {
		_, errs[chunk] = comm.AllreduceIterStats(c, comm.IterStats{}) // want collectivesym
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AllgatherInNestedTask puts the collective one par.For deeper: an inner
// kernel runs off the main goroutine no matter which goroutine called it.
func AllgatherInNestedTask(c comm.Comm) error {
	errs := make([]error, 4)
	par.For(2, func(outer int) {
		par.For(2, func(inner int) {
			_, errs[2*outer+inner] = comm.Allgather(c, nil) // want collectivesym
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// IngestThenGatherOK is the control case for the ingest shape: chunk kernels
// do pure parsing work and the collective runs after par.For returns.
func IngestThenGatherOK(c comm.Comm, data []byte) ([][]byte, error) {
	counts := make([]int, 2)
	par.For(2, func(chunk int) {
		lo, hi := chunk*len(data)/2, (chunk+1)*len(data)/2
		for _, b := range data[lo:hi] {
			if b == '\n' {
				counts[chunk]++
			}
		}
	})
	return comm.Allgather(c, []byte{byte(counts[0] + counts[1])})
}

// EncodeThenShipOK is the control case for the merge encode shape (PR 10):
// per-destination par.For kernels only fill disjoint frame buffers; the
// all-to-all that ships them runs on the main goroutine after par.For
// returns.
func EncodeThenShipOK(c comm.Comm, recs []int) ([][]byte, error) {
	frames := make([][]byte, 2)
	par.For(2, func(chunk int) {
		lo, hi := chunk*len(recs)/2, (chunk+1)*len(recs)/2
		for _, r := range recs[lo:hi] {
			frames[chunk] = append(frames[chunk], byte(r))
		}
	})
	return comm.Alltoallv(c, frames)
}

// ShipPerDestinationInTask is the tempting wrong version of the same shape:
// issuing the exchange from inside the per-destination kernel.
func ShipPerDestinationInTask(c comm.Comm, frames [][]byte) error {
	errs := make([]error, 2)
	par.For(2, func(chunk int) {
		_, errs[chunk] = comm.Alltoallv(c, frames) // want collectivesym
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
