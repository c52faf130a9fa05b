package core

// Microbenchmarks for the stage-1 clustering kernels, run with -benchmem.
// Each benchmark drives one kernel on every rank of a p=4 in-process world
// after warming the stage into its steady state (no vertex moves anywhere),
// so the numbers isolate the per-iteration cost of the kernel itself —
// scratch allocation, encoding, and arc scanning — rather than first-touch
// setup. scripts/bench.sh runs these and records the trajectory in
// BENCH_<pr>.json; allocs/op here is the headline number the zero-allocation
// work is measured by.

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/partition"
)

// benchWorldSize is the world size of every kernel benchmark. Big enough
// that the all-to-all exchanges have real fan-out, small enough that a
// single host machine is not oversubscribed during timing.
const benchWorldSize = 4

// benchKernel runs op b.N times on every rank of a steady-state stage and
// times it from rank 0. All ranks execute the same op sequence, so kernels
// containing collectives stay symmetric.
func benchKernel(b *testing.B, op func(s *stage) error) {
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
	b.ReportAllocs()
	err = comm.RunWorld(opt.P, func(c comm.Comm) error {
		s := newStage(c, layout.Parts[c.Rank()], opt)
		// Warm up to the fixed point: iterate the full per-iteration
		// protocol until no vertex moves anywhere in the world.
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
		// The last flush may have left communities dirty (iteration cap).
		if err := s.pushAggregates(); err != nil {
			return err
		}
		// Line the ranks up before timing.
		if _, err := comm.AllreduceInt64Sum(c, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := op(s); err != nil {
				return err
			}
		}
		_, err := comm.AllreduceInt64Sum(c, 0)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelSweep measures the sweep of a converged stage, where
// nothing is armed: the idle cost every late iteration pays, one flag test
// per owned vertex and hub.
func BenchmarkKernelSweep(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		s.sweep()
		return nil
	})
}

// BenchmarkKernelSweepArmed measures the greedy local-moving pass with
// every vertex and hub armed (owned Gauss-Seidel sweep + per-hub proposals,
// no communication): the full-evaluation kernel of a stage's first
// iteration.
func BenchmarkKernelSweepArmed(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		s.setActive(true)
		s.sweep()
		return nil
	})
}

// scanSink keeps the benchmarked scan's result live.
var scanSink float64

// BenchmarkKernelScanCandidates measures one scanCandidates call on a bare
// stage (no world), in the two shapes that bracket the sweep: a hub-like
// vertex of a first iteration — 4096 arcs into 2048 distinct singleton
// communities met in random label order, the case ordering every key is
// worst at — and a converged vertex whose 64 arcs reach 3 communities.
func BenchmarkKernelScanCandidates(b *testing.B) {
	for _, sh := range []struct {
		name        string
		arcs, comms int
	}{{"hub", 4096, 2048}, {"converged", 64, 3}} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			n := sh.arcs + 1 // vertex 0 is scanned; 1..arcs are its neighbours
			s := &stage{
				comm: make([]int32, n), tot: make([]int64, n), cached: make([]bool, n),
				gamma: 1, m2: 64 << 20 * int64(sh.arcs), p: 1,
			}
			labels := rng.Perm(sh.arcs)[:sh.comms]
			adj := make([]partition.Arc, sh.arcs)
			for i := range adj {
				c := 1 + labels[i%sh.comms]
				s.comm[1+i] = int32(c)
				s.cached[c] = true
				s.tot[c] += int64(1+rng.Intn(32)) << 20
				adj[i] = partition.Arc{To: 1 + i, W: 1 << 20}
			}
			rng.Shuffle(len(adj), func(i, j int) { adj[i], adj[j] = adj[j], adj[i] })
			cu := int(s.comm[1])
			s.comm[0] = int32(cu)
			k := int64(sh.arcs) << 20
			s.tot[cu] += k
			acc := newGainAccumulator(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, best, _ := s.scanCandidates(0, cu, k, adj, acc)
				scanSink = best
			}
		})
	}
}

// BenchmarkKernelPushAggregates measures the push that opens an iteration
// in the steady state: a converged stage has no dirty community, so this is
// the fixed cost every idle iteration pays (frame setup + one all-to-all of
// empty frames). It replaces BenchmarkKernelFetchCommunityInfo, whose
// steady state re-sent every referenced community.
func BenchmarkKernelPushAggregates(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		return s.pushAggregates()
	})
}

// BenchmarkKernelGhostSwap measures the ghost label exchange in the steady
// state (no changed vertices: pure frame setup + empty all-to-all).
func BenchmarkKernelGhostSwap(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		return s.ghostSwap()
	})
}

// BenchmarkKernelFlushDeltas measures the Σtot delta routing in the steady
// state (empty ledger: pure frame setup + empty all-to-all).
func BenchmarkKernelFlushDeltas(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		return s.flushDeltas()
	})
}

// BenchmarkKernelDelegateExchange measures hub-proposal encode + allreduce
// + replicated apply.
func BenchmarkKernelDelegateExchange(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		props, _ := s.sweep()
		_, err := s.delegateExchange(props)
		return err
	})
}

// BenchmarkKernelGlobalModularity measures the standalone modularity
// reduction: the O(1) local value and one world allreduce.
func BenchmarkKernelGlobalModularity(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		_, err := s.globalModularity()
		return err
	})
}

// BenchmarkKernelResolveQueries measures one tracked re-point as the solve
// loop makes it after a merge, on the steady-state stage: every rank looks
// up, at the owners, the label of the community each of its owned vertices
// and owned hubs sits in, as if those communities were the coarse level's
// vertices (R-MAT's isolated vertices stay singletons, as on a coarse
// level). Beside the timings it reports wire-B/op as BenchmarkMerge does:
// the bytes one call sends, both legs, averaged over ranks.
func BenchmarkKernelResolveQueries(b *testing.B) {
	var wireBytes atomic.Int64
	var queries [benchWorldSize][]int // per rank, built by its first call
	benchKernel(b, func(s *stage) error {
		q := queries[s.rnk]
		if q == nil {
			for _, u := range s.sg.Owned {
				q = append(q, int(s.comm[u]))
			}
			for _, h := range s.sg.Hubs {
				if s.owns(h) {
					q = append(q, int(s.comm[h]))
				}
			}
			queries[s.rnk] = q
		}
		if _, err := s.resolveQueries(nil, q, s.n, func(x int) int { return int(s.comm[x]) }); err != nil {
			return err
		}
		for r := 0; r < s.p; r++ {
			if r != s.rnk {
				wireBytes.Add(int64(len(s.frames[r]) + len(s.rqFrames[r])))
			}
		}
		return nil
	})
	b.ReportMetric(float64(wireBytes.Load())/float64(b.N)/benchWorldSize, "wire-B/op")
}

// qSink keeps the benchmarked modularity live.
var qSink float64

// BenchmarkModularity compares the two ways a rank gets its modularity term
// on a steady-state stage: "scan" is the full pass over every local arc and
// owned community slot that every iteration used to make (it now runs only
// at stage entry, after an update batch, and as the invariant oracle);
// "incremental" is the per-iteration cost with the terms kept by deltas —
// what the moves add to those is paid inside the sweep's and the
// exchanges' own walks.
func BenchmarkModularity(b *testing.B) {
	for _, mode := range []string{"scan", "incremental"} {
		b.Run(mode, func(b *testing.B) {
			benchKernel(b, func(s *stage) error {
				if mode == "scan" {
					s.seedQ()
				}
				qSink = s.localModularity()
				return nil
			})
		})
	}
}
