// Package badpool is a negative fixture for the collectivesym analyzer's
// async rule: comm collectives issued off the rank's main goroutine, from
// inside a worker-pool ParFor task or a goroutine. The communicator matches
// messages by (source, tag) in program order on the rank's goroutine, so
// these race the matching even when every rank reaches the collective.
// Errors are captured (not dropped) so commerr stays quiet and the
// collectivesym findings are isolated.
package badpool

import "repro/internal/comm"

// pool mimics the worker-pool dispatch of internal/par: ParFor runs a
// chunked kernel, possibly on worker goroutines. The analyzer matches the
// method by name, so this local stand-in exercises the same rule the real
// pool is checked by.
type pool struct{}

func (p *pool) ParFor(nChunks int, kernel func(chunk, worker int)) {
	for c := 0; c < nChunks; c++ {
		kernel(c, 0)
	}
}

// AllgatherInTask puts a collective inside a ParFor kernel: with more than
// one worker the Allgather's point-to-point traffic interleaves with
// whatever the main goroutine posts next.
func AllgatherInTask(c comm.Comm, p *pool) error {
	errs := make([]error, 4)
	p.ParFor(4, func(chunk, worker int) {
		_, errs[chunk] = comm.Allgather(c, nil) // want collectivesym
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReduceInTask covers a value-returning collective in a task.
func ReduceInTask(c comm.Comm, p *pool) ([]float64, error) {
	sums := make([]float64, 2)
	errs := make([]error, 2)
	p.ParFor(2, func(chunk, worker int) {
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
// and the collective runs on the main goroutine after ParFor returns.
func TaskThenCollectiveOK(c comm.Comm, p *pool, xs []float64) (float64, error) {
	partial := make([]float64, 2)
	p.ParFor(2, func(chunk, worker int) {
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

// FusedReduceInTask puts the fused per-iteration reduction inside a ParFor
// kernel.
func FusedReduceInTask(c comm.Comm, p *pool) error {
	errs := make([]error, 2)
	p.ParFor(2, func(chunk, worker int) {
		_, errs[chunk] = comm.AllreduceIterStats(c, comm.IterStats{}) // want collectivesym
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exportedPool is a second pool type with the same method name (matching is
// by name, not by receiver): the ingest and partition pipelines dispatch
// through ParFor too, and a collective inside one of their kernels is the
// same race.
type exportedPool struct{}

func (p *exportedPool) ParFor(nChunks int, kernel func(chunk, worker int)) {
	for c := 0; c < nChunks; c++ {
		kernel(c, 0)
	}
}

// AllgatherInExportedTask covers the exported ParFor entry point.
func AllgatherInExportedTask(c comm.Comm, p *exportedPool) error {
	errs := make([]error, 4)
	p.ParFor(4, func(chunk, worker int) {
		_, errs[chunk] = comm.Allgather(c, nil) // want collectivesym
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// IngestThenGatherOK is the control case for the ingest shape: chunk kernels
// do pure parsing work and the collective runs after the pool drains.
func IngestThenGatherOK(c comm.Comm, p *exportedPool, data []byte) ([][]byte, error) {
	counts := make([]int, 2)
	p.ParFor(2, func(chunk, worker int) {
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
// per-destination ParFor kernels only fill disjoint frame buffers; the
// all-to-all that ships them runs on the main goroutine after the pool
// drains.
func EncodeThenShipOK(c comm.Comm, p *pool, recs []int) ([][]byte, error) {
	frames := make([][]byte, 2)
	p.ParFor(2, func(chunk, worker int) {
		lo, hi := chunk*len(recs)/2, (chunk+1)*len(recs)/2
		for _, r := range recs[lo:hi] {
			frames[chunk] = append(frames[chunk], byte(r))
		}
	})
	return comm.Alltoallv(c, frames)
}

// ShipPerDestinationInTask is the tempting wrong version of the same shape:
// issuing the exchange from inside the per-destination kernel.
func ShipPerDestinationInTask(c comm.Comm, p *pool, frames [][]byte) error {
	errs := make([]error, 2)
	p.ParFor(2, func(chunk, worker int) {
		_, errs[chunk] = comm.Alltoallv(c, frames) // want collectivesym
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
