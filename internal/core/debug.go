package core

import (
	"fmt"

	"repro/internal/comm"
)

// debugInvariants enables per-iteration conservation checks in cluster();
// it is switched on by tests only.
var debugInvariants = false

// testIterHook, when non-nil, runs on every rank after each clustering
// iteration (post aggregate flush and modularity reduction) with the live
// stage, the iteration number, and the just-reduced global modularity.
// Tests install it to audit internal state against independently computed
// ground truth; an error aborts the stage. It must be set before the world
// starts and not mutated while ranks run.
var testIterHook func(s *stage, iter int, q float64) error

// testPushHook, when non-nil, runs on every rank right after the push that
// opens each iteration, before the sweep reads the cache. Same rules as
// testIterHook.
var testPushHook func(s *stage, iter int) error

// checkInvariants verifies global conservation laws after an iteration,
// exactly: the authoritative Σtot values must sum to 2m, an empty community
// must hold Σtot 0, and the community sizes must sum to the global vertex
// count. It also holds the incremental modularity terms to their full-scan
// oracles (scanIn, scanSq) with ==.
func (s *stage) checkInvariants(iter int) error {
	var localTot, localN int64
	for c := s.rnk; c < s.n; c += s.p {
		n := int64(s.ownSize[c])
		localN += n
		localTot += s.ownTot[c]
		if n < 0 {
			return fmt.Errorf("core: iter %d rank %d community %d has negative size %d", iter, s.rnk, c, n)
		}
		if n == 0 && s.ownTot[c] != 0 {
			return fmt.Errorf("core: iter %d rank %d empty community %d has Σtot %d", iter, s.rnk, c, s.ownTot[c])
		}
	}
	if in, _ := s.scanIn(); in != s.sumIn {
		return fmt.Errorf("core: iter %d rank %d: incremental Σin %d, full scan %d", iter, s.rnk, s.sumIn, in)
	}
	if sq := s.scanSq(); sq != s.sumSq {
		return fmt.Errorf("core: iter %d rank %d: incremental Σ(Σtot)² %v, full scan %v", iter, s.rnk, s.sumSq, sq)
	}
	gTot, err := comm.AllreduceInt64Sum(s.c, localTot)
	if err != nil {
		return err
	}
	gN, err := comm.AllreduceInt64Sum(s.c, localN)
	if err != nil {
		return err
	}
	owned, err := comm.AllreduceInt64Sum(s.c, int64(len(s.sg.Owned)))
	if err != nil {
		return err
	}
	wantN := owned + int64(len(s.sg.Hubs))
	if gN != wantN {
		return fmt.Errorf("core: iter %d: community sizes sum to %d, want %d", iter, gN, wantN)
	}
	if gTot != s.m2 {
		return fmt.Errorf("core: iter %d: Σtot sums to %d, want 2m = %d", iter, gTot, s.m2)
	}
	return nil
}
