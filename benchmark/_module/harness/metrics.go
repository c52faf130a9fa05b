package harness

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Def describes one metric: the same facts BENCHMARK.json carries, kept
// here so the command can print units and apply bounds without reading the
// file (a test holds the two lists equal).
type Def struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// EndToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them (the driver compares per
// workload and metric, and takes a missing or zero value as an error), so
// the list holds only what has the same meaning on all four workloads;
// README.md says what each means on serve-mixed, and where the read and
// update latencies of serve-mixed went.
var EndToEnd = []Def{
	{"setup_s", "s", "lower", 0.25},
	{"partition_s", "s", "lower", 0.25},
	{"pipeline_s", "s", "lower", 0.25},
	{"sim_parallel_ms", "ms", "lower", 0.25},
	{"wire_mb", "MB", "lower", 0.20},
	{"modularity", "Q", "higher", 0.06},
	{"nmi", "nmi", "higher", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.20},
}

// PerLayer is the traced run's list, named layer.metric. No bound applies;
// a metric that does not exist on a workload reads 0 there.
var PerLayer = []Def{
	{Name: "gen.lfr_s", Unit: "s", Better: "lower"},
	{Name: "gen.stream_rmat_s", Unit: "s", Better: "lower"},

	{Name: "graph.write_v2_s", Unit: "s", Better: "lower"},
	{Name: "graph.file_mb", Unit: "MB", Better: "lower"},
	{Name: "graph.open_readall_s", Unit: "s", Better: "lower"},
	{Name: "graph.ingest_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "partition.build_s", Unit: "s", Better: "lower"},
	{Name: "partition.build_streaming_s", Unit: "s", Better: "lower"},
	{Name: "partition.hubs", Unit: "count", Better: "lower"},
	{Name: "partition.imbalance_w", Unit: "ratio", Better: "lower"},
	{Name: "partition.max_ghosts", Unit: "count", Better: "lower"},

	{Name: "comm.msgs", Unit: "count", Better: "lower"},
	{Name: "comm.bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "comm.max_rank_bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "comm.send_s", Unit: "s", Better: "lower"},
	{Name: "comm.recv_wait_s", Unit: "s", Better: "lower"},
	{Name: "comm.recv_wait_max_rank_s", Unit: "s", Better: "lower"},

	{Name: "core.solve_s", Unit: "s", Better: "lower"},
	{Name: "core.stage1_s", Unit: "s", Better: "lower"},
	{Name: "core.stage2_s", Unit: "s", Better: "lower"},
	{Name: "core.stage1_iters", Unit: "count", Better: "lower"},
	{Name: "core.outer_levels", Unit: "count", Better: "lower"},
	{Name: "core.sim_stage1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sim_stage2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.balance_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.compute_self_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.find_best_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.broadcast_delegates_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.swap_ghost_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.other_s", Unit: "s", Better: "lower"},

	{Name: "louvain.serial_s", Unit: "s", Better: "lower"},
	{Name: "louvain.serial_modularity", Unit: "Q", Better: "higher"},

	{Name: "dserver.new_s", Unit: "s", Better: "lower"},
	{Name: "dserver.read_service_p50_us", Unit: "us", Better: "lower"},
	{Name: "dserver.read_blocked_frac", Unit: "fraction", Better: "lower"},
	{Name: "dserver.update_incremental_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dserver.update_full_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dserver.full_fallback_frac", Unit: "fraction", Better: "lower"},
	{Name: "dserver.parse_ops_us", Unit: "us", Better: "lower"},

	{Name: "loadgen.plan_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.late_frac", Unit: "fraction", Better: "lower"},

	{Name: "serve.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_slow_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.update_p80_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.layer_coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object the command prints as its last line: exactly these
// four keys, Metrics holding every end-to-end metric of an untraced run or
// every per-layer metric of a traced one.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is a Result with what a reader needs beside it.
type Report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Seconds  int    `json:"seconds"`
	Result   Result `json:"result"`
	// Samples is how many timings stand behind a metric that is a median
	// or a percentile.
	Samples map[string]int `json:"samples,omitempty"`
	// Extra holds values measured on the way that are not in this run's
	// list: the traced numbers an untraced run has anyway, printed, never
	// compared by the driver.
	Extra map[string]Metric `json:"extra,omitempty"`
	// Hash is the FNV-1a hash of the normalized final membership.
	Hash string `json:"hash,omitempty"`
	// Failures says which check each failed attempt missed.
	Failures []string `json:"failures,omitempty"`
	// Notes are caveats on single values, such as a percentile with too few
	// samples beyond it.
	Notes    []string `json:"notes,omitempty"`
	SpanFile string   `json:"span_file,omitempty"`
}

// values collects measurements by metric name while a workload runs and
// fills a Result from a Def list at the end.
type values struct {
	v       map[string]float64
	samples map[string]int
}

func newValues() *values {
	return &values{v: map[string]float64{}, samples: map[string]int{}}
}

func (vs *values) set(name string, x float64) { vs.v[name] = x }

// median stores the median of xs under name, and its sample count.
func (vs *values) median(name string, xs []float64) {
	vs.v[name] = Median(xs)
	vs.samples[name] = len(xs)
}

// fill builds the metric map for defs (0 where nothing was measured) and
// moves everything else measured into extra.
func (vs *values) fill(defs []Def) (metrics, extra map[string]Metric) {
	metrics = make(map[string]Metric, len(defs))
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		metrics[d.Name] = Metric{Value: vs.v[d.Name], Unit: d.Unit}
		listed[d.Name] = true
	}
	units := make(map[string]string)
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		units[d.Name] = d.Unit
	}
	extra = make(map[string]Metric)
	for name, x := range vs.v {
		if !listed[name] {
			extra[name] = Metric{Value: x, Unit: units[name]}
		}
	}
	return metrics, extra
}

// heapWatch samples HeapInuse every 20 ms, as dlouvain -memstats does, and
// keeps the highest value seen.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	high atomic.Uint64
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > w.high.Load() {
				w.high.Store(ms.HeapInuse)
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// Stop takes a last sample and returns the high-water mark in MB.
func (w *heapWatch) Stop() float64 {
	close(w.stop)
	<-w.done
	return float64(w.high.Load()) / (1 << 20)
}
