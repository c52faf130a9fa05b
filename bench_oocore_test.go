package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// heapHighWater samples HeapInuse every 20ms (mirroring dlouvain -memstats)
// and returns a stop function that reports the high-water mark in bytes.
func heapHighWater() func() uint64 {
	stop := make(chan struct{})
	out := make(chan uint64, 1)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		var high uint64
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > high {
				high = ms.HeapInuse
			}
			select {
			case <-stop:
				out <- high
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-out
	}
}

// BenchmarkOocorePipeline is the PR-9 acceptance benchmark: the full
// out-of-core pipeline — streamed R-MAT generation to a v2 .sbin, two-pass
// streaming partition, windowed solve — with the heap high-water as an
// extra metric. The default scale keeps CI fast; the recorded row
// (git show 11a6fa5:BENCH_9.json) was produced with OOCORE_SCALE=23
// (>= 10^8 edges, see EXPERIMENTS.md),
// where the generate and partition phases stay flat in shard-window size
// rather than growing with |E|.
func BenchmarkOocorePipeline(b *testing.B) {
	scale := 14
	if s := os.Getenv("OOCORE_SCALE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("OOCORE_SCALE: %v", err)
		}
		scale = v
	}
	shards := 16
	if scale > 16 {
		shards = 256
	}
	cfg := gen.Graph500RMAT(scale, 9)
	b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stop := heapHighWater()
			path := filepath.Join(b.TempDir(), "g.sbin")
			sg, err := gen.StreamRMAT(cfg, path, shards)
			if err != nil {
				b.Fatal(err)
			}
			s, closer, err := graph.OpenShardedFile(path)
			if err != nil {
				b.Fatal(err)
			}
			opt := core.Options{P: 4}
			layout, err := partition.BuildStreaming(s, partition.Options{
				P:     opt.P,
				Kind:  partition.Delegate,
				DHigh: core.DefaultDHigh(opt.P, s.NumVertices(), s.NumArcs()),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := closer.Close(); err != nil {
				b.Fatal(err)
			}
			res, err := core.RunLayout(layout, opt)
			if err != nil {
				b.Fatal(err)
			}
			if res.Modularity <= 0 {
				b.Fatal("bad modularity")
			}
			hw := stop()
			b.ReportMetric(float64(hw)/(1<<20), "heap-MB")
			b.ReportMetric(float64(sg.Arcs/2), "edges")
			b.ReportMetric(res.Modularity, "modularity")
		}
	})
}
