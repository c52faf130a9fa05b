package core

// Benchmarks for the stage-2 distributed merge (Algorithm 3): the retained
// seed implementation (merge_seed_test.go) versus the zero-map pipeline in
// merge.go, on the same converged p=4 world. Besides ns/op and allocs/op,
// each reports wire-B/op — the bytes one merge sends, averaged over ranks,
// from each endpoint's traffic counters — so the pre-aggregation wire
// reduction is recorded alongside the speedup.

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/partition"
)

// benchMerge times op (a full merge) on every rank of a steady-state stage,
// exactly like benchKernel, and additionally reports the bytes one op sends
// per rank, from each endpoint's traffic counters. One untimed warm call
// settles scratch growth first, so the timed region measures the pooled
// steady state.
func benchMerge(b *testing.B, op func(s *stage) error) {
	b.Helper()
	g, err := gen.RMAT(gen.Graph500RMAT(12, 7))
	if err != nil {
		b.Fatal(err)
	}
	opt, err := (Options{P: benchWorldSize, DHigh: 64}).withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{
		P: opt.P, Kind: opt.Partitioning, DHigh: opt.DHigh,
	})
	if err != nil {
		b.Fatal(err)
	}
	sent := make([]int64, opt.P)
	b.ReportAllocs()
	err = comm.RunWorld(opt.P, func(c comm.Comm) error {
		s := newStage(c, layout.Parts[c.Rank()], opt)
		if err := s.registerWatches(); err != nil {
			return err
		}
		for iter := 0; iter < maxInnerIters; iter++ {
			if err := s.pushAggregates(); err != nil {
				return err
			}
			props, movedLocal := s.sweep()
			hubMoved, err := s.delegateExchange(props)
			if err != nil {
				return err
			}
			if err := s.ghostSwap(); err != nil {
				return err
			}
			if err := s.flushDeltas(); err != nil {
				return err
			}
			movedTotal, err := comm.AllreduceInt64Sum(c, int64(movedLocal+hubMoved))
			if err != nil {
				return err
			}
			if movedTotal == 0 {
				break
			}
		}
		if err := op(s); err != nil { // settle one-time scratch growth
			return err
		}
		// Line the ranks up before timing.
		if _, err := comm.AllreduceInt64Sum(c, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		before := c.Stats().Snapshot().BytesSent
		for i := 0; i < b.N; i++ {
			if err := op(s); err != nil {
				return err
			}
		}
		sent[c.Rank()] = c.Stats().Snapshot().BytesSent - before
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, n := range sent {
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N)/float64(opt.P), "wire-B/op")
}

// BenchmarkMergeSeed measures the seed-era merge: serial map-of-maps
// assembly, per-vertex sort.Ints, one wire record per translated arc.
func BenchmarkMergeSeed(b *testing.B) {
	benchMerge(b, func(s *stage) error {
		_, _, err := s.mergeSeed()
		return err
	})
}

// BenchmarkMergePreagg measures the zero-map pipeline: pooled counting-sort
// assembly and key-grouped pre-aggregated frames.
func BenchmarkMergePreagg(b *testing.B) {
	benchMerge(b, func(s *stage) error {
		_, _, err := s.merge()
		return err
	})
}
