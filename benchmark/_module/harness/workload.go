package harness

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
)

// Workloads are the four named inputs, in the order they run. README.md
// says why each exists; later issues cite these names.
var Workloads = []string{"batch-lfr", "batch-rmat", "oocore-rmat", "serve-mixed"}

// P is the world size of every workload: the cmd/dlouvain and cmd/dserver
// default. Workers stays 0 (GOMAXPROCS/P), delegate partitioning and the
// enhanced heuristic are the zero values of core.Options.
const P = 4

// Sizes fixes the inputs. No flag changes them except -smoke.
type Sizes struct {
	LFRN      int     // batch-lfr vertices
	RMATScale int     // batch-rmat and oocore-rmat scale
	ServeN    int     // serve-mixed vertices
	Mu        float64 // LFR mixing
	Shards    int     // .sbin shard count (the gengraph default)
	// Instances is how many graphs a run generates; every metric is taken
	// over all of them (see instance in batch.go), and setup_s is the
	// median of their set-ups.
	Instances       int
	SerialInstances int     // how many of them also get the serial Louvain baseline
	Warmups         int     // discarded reps before timing
	MinMetered      int     // metered reps a traced batch run makes even if the window is over
	ReadRate        float64 // serve-mixed reader stream, requests per second
	UpdateRate      float64 // serve-mixed writer stream, update batches per second
	BatchOps        int     // edge ops per update batch
}

// FullSizes is what the benchmark measures.
var FullSizes = Sizes{
	LFRN: 60000, RMATScale: 16, ServeN: 20000, Mu: 0.3, Shards: 16,
	Instances: 8, SerialInstances: 2, Warmups: 1, MinMetered: 3,
	ReadRate: 200, UpdateRate: 3, BatchOps: 4,
}

// SmokeSizes are toy inputs for the tests: every code path, no meaning.
var SmokeSizes = Sizes{
	LFRN: 3000, RMATScale: 10, ServeN: 2000, Mu: 0.3, Shards: 4,
	Instances: 2, SerialInstances: 1, Warmups: 1, MinMetered: 2,
	ReadRate: 200, UpdateRate: 10, BatchOps: 4,
}

// Config is one run of one workload.
type Config struct {
	Workload string
	Seed     int64
	Window   time.Duration // how long the run measures
	Trace    bool
	WorkDir  string // generated files and the span file go here
	Sizes    Sizes
	// Smoke relaxes the quality thresholds that only hold at full size.
	Smoke bool
}

// Run runs one workload and returns its report. An error means the
// benchmark itself could not run; a correctness miss is in the report.
func Run(cfg Config) (*Report, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	var rec *Recorder
	if cfg.Trace {
		rec = NewRecorder()
	}
	r := &run{cfg: cfg, rec: rec, vals: newValues()}
	// The graphs can be made again from the seed; only the span file stays.
	defer func() {
		for _, path := range r.graphs {
			os.Remove(path)
		}
	}()
	var err error
	switch cfg.Workload {
	case "batch-lfr":
		err = r.batch(true, false)
	case "batch-rmat":
		err = r.batch(false, false)
	case "oocore-rmat":
		err = r.batch(false, true)
	case "serve-mixed":
		err = r.serve()
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, Workloads)
	}
	if err != nil {
		return nil, err
	}
	return r.report()
}

// run is the state of one workload run: the measurements so far and the
// tally of attempts and misses.
type run struct {
	cfg       Config
	rec       *Recorder
	vals      *values
	attempted int
	failures  []string
	hash      uint64
	graphs    []string // generated graph files, removed when the run ends
	notes     []string
}

// check counts one attempt and, when ok is false, one failure.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// tail stores the p-th percentile of xs under name and, when the samples do
// not support a tail that high, says so in the report.
func (r *run) tail(name string, xs []float64, p float64) {
	r.vals.set(name, Percentile(xs, p))
	r.vals.samples[name] = len(xs)
	if top, ok := SupportedTail(len(xs)); !ok || top < p {
		r.notes = append(r.notes, fmt.Sprintf("%s: %d samples leave %d beyond p%v, fewer than %d: an outlier or two, not a tail",
			name, len(xs), SamplesBeyond(len(xs), p), p, minBeyond))
	}
}

func (r *run) path(name string) string {
	return filepath.Join(r.cfg.WorkDir, fmt.Sprintf("%s-seed%d-%s", r.cfg.Workload, r.cfg.Seed, name))
}

// graphPath names the file of graph instance k.
func (r *run) graphPath(k int) string {
	path := r.path(fmt.Sprintf("graph%d.sbin", k))
	r.graphs = append(r.graphs, path)
	return path
}

func (r *run) report() (*Report, error) {
	rep := &Report{
		Workload: r.cfg.Workload, Seed: r.cfg.Seed, Trace: r.cfg.Trace,
		Seconds: int(r.cfg.Window / time.Second),
		Samples: r.vals.samples, Failures: r.failures, Notes: r.notes,
		Hash: fmt.Sprintf("%016x", r.hash),
	}
	defs := EndToEnd
	if r.cfg.Trace {
		defs = PerLayer
		rep.SpanFile = r.path("spans.json")
		n, err := r.rec.WriteJSON(rep.SpanFile)
		if err != nil {
			return nil, err
		}
		r.vals.set("trace.spans", float64(n))
	}
	metrics, extra := r.vals.fill(defs)
	rep.Extra = extra
	rep.Result = Result{
		Correct: len(r.failures) == 0, Attempted: r.attempted,
		Failed: len(r.failures), Metrics: metrics,
	}
	return rep, nil
}

// genSeed derives a generator seed from the benchmark seed, one per use
// and instance, so no two generators of a run share a stream.
func genSeed(seed, use int64, inst int) int64 { return (seed*16+use)*1024 + int64(inst) }

// hashMembership is FNV-1a over the labels of a normalized membership
// (core.RunLayout, World.Membership and solveMetered all return one): equal
// exactly when two runs found the same partition.
func hashMembership(m graph.Membership) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range m {
		b[0], b[1], b[2], b[3] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}
