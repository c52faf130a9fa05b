package core

// Tests for the perf-oriented machinery: allocation ceilings on the
// steady-state per-iteration kernels.

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func sameMembership(a, b graph.Membership) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// steadyState drives a fresh stage to its fixed point (no vertex moves
// anywhere) and leaves the aggregate cache hot, mirroring benchKernel.
func steadyState(t *testing.T, c comm.Comm, s *stage) {
	t.Helper()
	if err := s.registerWatches(); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < s.opt.MaxInnerIters; iter++ {
		if err := s.pushAggregates(); err != nil {
			t.Fatal(err)
		}
		props, movedLocal := s.sweep()
		hubMoved, err := s.delegateExchange(props)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ghostSwap(); err != nil {
			t.Fatal(err)
		}
		if err := s.flushDeltas(); err != nil {
			t.Fatal(err)
		}
		movedTotal, err := comm.AllreduceInt64Sum(c, int64(movedLocal+hubMoved))
		if err != nil {
			t.Fatal(err)
		}
		if movedTotal == 0 {
			break
		}
	}
	if err := s.pushAggregates(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocCeilings bounds the per-iteration allocations of the
// hot kernels once the stage has converged. The sweep must be allocation-
// free; the exchanges may allocate only what the comm layer itself needs
// for frame delivery (the encode side is pooled). Run on a P=1 world so the
// ceilings are exact and scheduler-independent.
func TestSteadyStateAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting under -short")
	}
	g, err := gen.RMAT(gen.Graph500RMAT(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: 1, DHigh: 32}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{P: 1, Kind: opt.Partitioning, DHigh: opt.DHigh})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(1, func(c comm.Comm) error {
		s := newStage(c, layout.Parts[0], opt)
		steadyState(t, c, s)
		check := func(name string, ceiling float64, op func()) {
			op() // settle any one-time growth before counting
			if got := testing.AllocsPerRun(10, op); got > ceiling {
				t.Errorf("%s: %v allocs/op, ceiling %v", name, got, ceiling)
			}
		}
		check("sweep", 0, func() { s.setActive(true); s.sweep() })
		check("ghostSwap", 8, func() {
			if err := s.ghostSwap(); err != nil {
				t.Fatal(err)
			}
		})
		check("flushDeltas", 8, func() {
			if err := s.flushDeltas(); err != nil {
				t.Fatal(err)
			}
		})
		check("globalModularity", 8, func() {
			if _, err := s.globalModularity(); err != nil {
				t.Fatal(err)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
