package loadgen

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dserver"
	"repro/internal/gen"
	"repro/internal/graph"
)

func benchGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, _, err := gen.Caveman(8, 8)
	if err != nil {
		t.Fatalf("caveman: %v", err)
	}
	return g
}

func newWorld(t testing.TB, g *graph.Graph, p int) *dserver.World {
	t.Helper()
	w, err := dserver.New(g, dserver.Options{P: p, AutoResolve: true})
	if err != nil {
		t.Fatalf("dserver.New: %v", err)
	}
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return w
}

// TestPlanDeterministic pins the plan itself: same seed, same streams —
// including the update payloads and Poisson gaps.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Tenants: 3, Requests: 120, Seed: 7, Rate: 500}
	a := NewPlan(64, cfg)
	b := NewPlan(64, cfg)
	if !reflect.DeepEqual(a.Streams, b.Streams) {
		t.Fatal("two plans from the same seed differ")
	}
	c := NewPlan(64, Config{Tenants: 3, Requests: 120, Seed: 8, Rate: 500})
	if reflect.DeepEqual(a.Streams, c.Streams) {
		t.Fatal("plans from different seeds are identical")
	}
}

// TestPlanTenantPoolsDisjoint verifies no two tenants ever touch the same
// edge pair — the property that makes concurrent update batches safe.
func TestPlanTenantPoolsDisjoint(t *testing.T) {
	pl := NewPlan(64, Config{Tenants: 4, Requests: 400, Seed: 3, UpdateFrac: 0.9})
	ownerOf := make(map[[2]int]int)
	for tn, stream := range pl.Streams {
		for _, r := range stream {
			for _, op := range r.Ops {
				u, v := op.U, op.V
				if u > v {
					u, v = v, u
				}
				k := [2]int{u, v}
				if prev, ok := ownerOf[k]; ok && prev != tn {
					t.Fatalf("pair %v used by tenants %d and %d", k, prev, tn)
				}
				ownerOf[k] = tn
			}
		}
	}
	if len(ownerOf) == 0 {
		t.Fatal("plan generated no update pairs")
	}
}

// TestReplayDeterministic runs the same plan on two fresh worlds and pins
// the final state bit-for-bit: modularity, edge count, batch counters, and
// full membership.
func TestReplayDeterministic(t *testing.T) {
	g := benchGraph(t)
	cfg := Config{Tenants: 4, Requests: 80, Seed: 11, UpdateFrac: 0.4, BatchSize: 3}
	pl := NewPlan(g.NumVertices(), cfg)

	type snap struct {
		stats dserver.Stats
		memb  graph.Membership
	}
	run := func() snap {
		w := newWorld(t, g, 2)
		res, err := Replay(w, pl)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if res.Errors != 0 {
			t.Fatalf("replay saw %d errors", res.Errors)
		}
		if res.Updates == 0 {
			t.Fatal("plan exercised no updates")
		}
		m, err := w.Membership()
		if err != nil {
			t.Fatalf("membership: %v", err)
		}
		return snap{stats: w.Stats(), memb: m}
	}
	a, b := run(), run()
	if a.stats != b.stats {
		t.Errorf("stats diverged across identical replays:\n%+v\n%+v", a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.memb, b.memb) {
		t.Error("membership diverged across identical replays")
	}
}

// TestRunClosedLoop exercises the concurrent runner (no pacing) end to end
// and sanity-checks the aggregate result.
func TestRunClosedLoop(t *testing.T) {
	g := benchGraph(t)
	w := newWorld(t, g, 2)
	cfg := Config{Tenants: 4, Requests: 64, Seed: 5, UpdateFrac: 0.3, BatchSize: 2}
	pl := NewPlan(g.NumVertices(), cfg)
	res := Run(w, pl)
	want := 0
	for _, s := range pl.Streams {
		want += len(s)
	}
	if res.Requests != want {
		t.Fatalf("ran %d requests, want %d", res.Requests, want)
	}
	if res.Errors != 0 {
		t.Fatalf("run saw %d errors", res.Errors)
	}
	if res.Updates == 0 {
		t.Fatal("run exercised no updates")
	}
	if res.P50 < 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatalf("latency quantiles out of order: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v, want > 0", res.Throughput)
	}
}

// BenchmarkServeLoad is the latency/throughput sweep of the serving path:
// a fixed multi-tenant mix offered at increasing rates against one
// resident world per rate step.
func BenchmarkServeLoad(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(10, 7))
	if err != nil {
		b.Fatalf("rmat: %v", err)
	}
	base := Config{Tenants: 8, Requests: 200, Seed: 42, UpdateFrac: 0.2, BatchSize: 4}
	for _, rate := range []float64{50, 200, 800} {
		b.Run(fmt.Sprintf("rate%d", int(rate)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newWorld(b, g, 4)
				cfg := base
				cfg.Rate = rate
				pl := NewPlan(g.NumVertices(), cfg)
				b.StartTimer()
				res := Run(w, pl)
				b.StopTimer()
				b.ReportMetric(res.Throughput, "req/s")
				b.ReportMetric(float64(res.P50.Microseconds()), "p50-µs")
				b.ReportMetric(float64(res.P99.Microseconds()), "p99-µs")
				if err := w.Close(); err != nil {
					b.Fatalf("close: %v", err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkIncrementalUpdate and BenchmarkFullResolve bracket the win of
// the incremental path: one update batch absorbed by the k-hop sweep
// versus a from-scratch re-solve of the same world.
func BenchmarkIncrementalUpdate(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(10, 7))
	if err != nil {
		b.Fatalf("rmat: %v", err)
	}
	// No AutoResolve: measure the incremental path alone.
	w, err := dserver.New(g, dserver.Options{P: 4, Core: core.Options{DriftQ: 1e9, DriftTouched: 1e9}})
	if err != nil {
		b.Fatalf("dserver.New: %v", err)
	}
	defer w.Close()
	pl := NewPlan(g.NumVertices(), Config{Tenants: 1, Requests: 2 * b.N, Seed: 9, UpdateFrac: 1, BatchSize: 8})
	var batches [][]dserver.Op
	for _, stream := range pl.Streams {
		for _, r := range stream {
			batches = append(batches, r.Ops)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Update(batches[i%len(batches)]); err != nil {
			b.Fatalf("update: %v", err)
		}
	}
}

func BenchmarkFullResolve(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(10, 7))
	if err != nil {
		b.Fatalf("rmat: %v", err)
	}
	w, err := dserver.New(g, dserver.Options{P: 4})
	if err != nil {
		b.Fatalf("dserver.New: %v", err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Resolve(); err != nil {
			b.Fatalf("resolve: %v", err)
		}
	}
}
