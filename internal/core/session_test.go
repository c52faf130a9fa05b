package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// ---------------------------------------------------------------------------
// Harness: a resident session world over the in-process transport.

// sessionRun drives one resident world: every rank solves, then applies the
// batches in lockstep, optionally re-solving (the drift fallback) whenever a
// batch reports NeedFull. Returned slices are rank 0's replicated values.
type sessionRun struct {
	Results    []UpdateResult
	Fallbacks  []bool // parallel to Results: batch was followed by a full re-solve
	Q          float64
	Membership graph.Membership
}

func runSessionBatches(t *testing.T, g *graph.Graph, opt Options, batches [][]EdgeOp, resolveOnNeedFull bool) sessionRun {
	t.Helper()
	// Run's own mapping, so session worlds partition exactly like the batch
	// oracle they are compared against.
	layout, err := partition.Build(g, opt.PartitionOptions(g.NumVertices(), g.NumArcs()))
	if err != nil {
		t.Fatal(err)
	}
	opt.DHigh = layout.DHigh
	results := make([][]UpdateResult, opt.P)
	fallbacks := make([][]bool, opt.P)
	qs := make([]float64, opt.P)
	tracked := make([][]int, opt.P)
	labels := make([][]int, opt.P)
	err = comm.RunWorld(opt.P, func(c comm.Comm) error {
		r := c.Rank()
		ses, err := NewSession(c, layout.Parts[r].CloneForServing(), opt)
		if err != nil {
			return err
		}
		defer ses.Close()
		if err := ses.Solve(); err != nil {
			return err
		}
		for _, batch := range batches {
			res, err := ses.ApplyUpdates(batch)
			if err != nil {
				return err
			}
			results[r] = append(results[r], res)
			fell := false
			if res.NeedFull && resolveOnNeedFull {
				if err := ses.Solve(); err != nil {
					return err
				}
				fell = true
			}
			fallbacks[r] = append(fallbacks[r], fell)
		}
		qs[r] = ses.Modularity()
		tracked[r], labels[r] = ses.Tracked()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := make(graph.Membership, g.NumVertices())
	for r := 0; r < opt.P; r++ {
		for i, v := range tracked[r] {
			m[v] = labels[r][i]
		}
	}
	m.Normalize()
	// Replication check: every rank must have seen identical results.
	for r := 1; r < opt.P; r++ {
		if len(results[r]) != len(results[0]) {
			t.Fatalf("rank %d saw %d results, rank 0 saw %d", r, len(results[r]), len(results[0]))
		}
		for i := range results[r] {
			if results[r][i] != results[0][i] {
				t.Fatalf("batch %d: rank %d result %+v != rank 0 result %+v", i, r, results[r][i], results[0][i])
			}
		}
		if math.Float64bits(qs[r]) != math.Float64bits(qs[0]) {
			t.Fatalf("rank %d final Q %x != rank 0 %x", r, qs[r], qs[0])
		}
	}
	return sessionRun{Results: results[0], Fallbacks: fallbacks[0], Q: qs[0], Membership: m}
}

// edgeLedger mirrors the update stream on the test side, so an oracle graph
// can be rebuilt at any checkpoint.
type edgeLedger map[[2]int]float64

func ledgerOf(g *graph.Graph) edgeLedger {
	led := make(edgeLedger)
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		led[edgeKey(e.U, e.V)] += e.W
	}
	return led
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (l edgeLedger) apply(ops []EdgeOp) {
	for _, op := range ops {
		k := edgeKey(op.U, op.V)
		if op.Del {
			delete(l, k)
		} else {
			l[k] += op.W
		}
	}
}

func (l edgeLedger) graph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, len(l))
	for k, w := range l {
		edges = append(edges, graph.Edge{U: k[0], V: k[1], W: w})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomStream generates a deterministic mixed insert/delete stream against
// a ledger copy: existing edges are deleted (with their full weight),
// absent pairs inserted at weight 1.
func randomStream(g *graph.Graph, seed int64, batches, batchSize int, delFrac float64) [][]EdgeOp {
	rng := rand.New(rand.NewSource(seed))
	led := ledgerOf(g)
	n := g.NumVertices()
	out := make([][]EdgeOp, batches)
	for b := range out {
		ops := make([]EdgeOp, 0, batchSize)
		for len(ops) < batchSize {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			k := edgeKey(u, v)
			w, exists := led[k]
			if exists && rng.Float64() < delFrac {
				ops = append(ops, EdgeOp{U: u, V: v, W: w, Del: true})
				delete(led, k)
			} else if !exists {
				ops = append(ops, EdgeOp{U: u, V: v, W: 1})
				led[k] = 1
			}
		}
		out[b] = ops
	}
	return out
}

// ---------------------------------------------------------------------------
// Solve + install reproduces the batch solver.

func TestSessionInstallMatchesBatchRun(t *testing.T) {
	g := goldenGraph(t)
	for _, p := range []int{1, 2, 4} {
		opt := Options{P: p}
		batch, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		run := runSessionBatches(t, g, opt, nil, false)
		if !sameMembership(batch.Membership, run.Membership) {
			t.Errorf("p=%d: installed membership disagrees with batch Run", p)
		}
		// The installed Q is recomputed on the original graph; the batch Q
		// comes off the coarsest stage. Mathematically equal (modularity is
		// invariant under aggregation), so only float error may separate them.
		if d := math.Abs(batch.Modularity - run.Q); d > 1e-9 {
			t.Errorf("p=%d: install Q %v vs batch Q %v (|Δ|=%g)", p, run.Q, batch.Modularity, d)
		}
	}
}

// ---------------------------------------------------------------------------
// Property test: incremental quality stays pinned to the full-solve oracle.

func TestIncrementalQualityPinned(t *testing.T) {
	rmat, err := gen.RMAT(gen.Graph500RMAT(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"golden_p2", goldenGraph(t), 2},
		{"golden_p4", goldenGraph(t), 4},
		{"rmat_p4", rmat, 4},
	}
	const qSlack = 0.03 // heuristic-to-heuristic wobble allowance on top of DriftQ
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{P: tc.p, DHigh: 8}
			stream := randomStream(tc.g, 42, 6, 12, 0.4)
			led := ledgerOf(tc.g)
			run := runSessionBatches(t, tc.g, opt, stream, true)
			oopt, _ := opt.withDefaults()
			for i, batch := range stream {
				if run.Results[i].Touched == 0 {
					t.Errorf("batch %d: incremental sweep touched no vertices (seeding broken?)", i)
				}
				led.apply(batch)
				oracle, err := Run(led.graph(t, tc.g.NumVertices()), opt)
				if err != nil {
					t.Fatal(err)
				}
				q := run.Results[i].Q
				if run.Fallbacks[i] {
					// After a fallback the session re-solved; its Q is the
					// full-solve quality, checked on later checkpoints.
					continue
				}
				if q < oracle.Modularity-oopt.DriftQ-qSlack {
					t.Errorf("batch %d: incremental Q %.6f below oracle %.6f - bound %.3f",
						i, q, oracle.Modularity, oopt.DriftQ+qSlack)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Adversarial stream: deleting a community's internal edges must force the
// drift fallback.

func TestIncrementalFallbackAdversarial(t *testing.T) {
	g, want, err := gen.Caveman(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = want
	opt := Options{P: 2, DHigh: 16, DriftQ: 0.02}
	// Solve once to find the largest community, then delete every internal
	// edge of it (its spanning structure) in small batches.
	base, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, c := range base.Membership {
		counts[c]++
	}
	big, bigN := -1, 0
	for _, c := range base.Membership {
		if counts[c] > bigN {
			big, bigN = c, counts[c]
		}
	}
	var doomed []EdgeOp
	for _, e := range g.Edges() {
		if e.U != e.V && base.Membership[e.U] == big && base.Membership[e.V] == big {
			doomed = append(doomed, EdgeOp{U: e.U, V: e.V, W: e.W, Del: true})
		}
	}
	if len(doomed) < 4 {
		t.Fatalf("degenerate fixture: largest community (%d members) has %d internal edges", bigN, len(doomed))
	}
	var batches [][]EdgeOp
	for len(doomed) > 0 {
		n := 6
		if n > len(doomed) {
			n = len(doomed)
		}
		batches = append(batches, doomed[:n])
		doomed = doomed[n:]
	}
	run := runSessionBatches(t, g, opt, batches, false)
	triggered := false
	for _, res := range run.Results {
		if res.NeedFull {
			triggered = true
		}
	}
	if !triggered {
		t.Errorf("adversarial deletion stream never reported NeedFull (final drift should exceed DriftQ=%g)", opt.DriftQ)
	}
}

// ---------------------------------------------------------------------------
// Determinism: identical streams must produce bit-identical results across
// worker counts.

func TestIncrementalDeterminism(t *testing.T) {
	g := goldenGraph(t)
	opt := Options{P: 3, DHigh: 6, Workers: 1}
	stream := randomStream(g, 99, 4, 10, 0.3)
	ref := runSessionBatches(t, g, opt, stream, true)
	opt.Workers = 4
	run := runSessionBatches(t, g, opt, stream, true)
	for i := range ref.Results {
		a, b := ref.Results[i], run.Results[i]
		if a.Moved != b.Moved || a.Touched != b.Touched || a.Iters != b.Iters ||
			a.NeedFull != b.NeedFull || math.Float64bits(a.Q) != math.Float64bits(b.Q) {
			t.Fatalf("workers=4 batch %d: %+v != workers=1 %+v", i, b, a)
		}
	}
	if math.Float64bits(ref.Q) != math.Float64bits(run.Q) {
		t.Fatalf("workers=4: final Q %x != workers=1 %x", run.Q, ref.Q)
	}
	if !sameMembership(ref.Membership, run.Membership) {
		t.Fatal("workers=4: final membership differs from workers=1")
	}
}

// ---------------------------------------------------------------------------
// Transport independence: a session world over TCP loopback endpoints must
// match the in-process world bit for bit.

func TestSessionTCPMatchesInproc(t *testing.T) {
	g := goldenGraph(t)
	opt := Options{P: 2, DHigh: 6}
	stream := randomStream(g, 7, 2, 8, 0.3)
	inproc := runSessionBatches(t, g, opt, stream, false)

	layout, err := partition.Build(g, partition.Options{P: opt.P, DHigh: opt.DHigh})
	if err != nil {
		t.Fatal(err)
	}
	addrs := coreFreeAddrs(t, opt.P)
	results := make([][]UpdateResult, opt.P)
	qs := make([]float64, opt.P)
	errs := make([]error, opt.P)
	var wg sync.WaitGroup
	for r := 0; r < opt.P; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := comm.DialTCPWorld(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer ep.Close()
			ses, err := NewSession(ep, layout.Parts[r].CloneForServing(), opt)
			if err != nil {
				errs[r] = err
				return
			}
			defer ses.Close()
			if err := ses.Solve(); err != nil {
				errs[r] = err
				return
			}
			for _, batch := range stream {
				res, err := ses.ApplyUpdates(batch)
				if err != nil {
					errs[r] = err
					return
				}
				results[r] = append(results[r], res)
			}
			qs[r] = ses.Modularity()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for i := range inproc.Results {
		if results[0][i] != inproc.Results[i] {
			t.Fatalf("batch %d: TCP %+v != inproc %+v", i, results[0][i], inproc.Results[i])
		}
	}
	if math.Float64bits(qs[0]) != math.Float64bits(inproc.Q) {
		t.Fatalf("TCP final Q %x != inproc %x", qs[0], inproc.Q)
	}
}
