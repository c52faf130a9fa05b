package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
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
// batches in lockstep under the serving driver's policy replayed on the test
// side (internal/dserver): each batch is seeded with the 2-hop ball of
// replaySeeds, and with driftQ > 0 a batch whose drift since the last full
// solve crosses driftQ or the default touched threshold is followed by a
// full re-solve. Returned slices are rank 0's replicated values.
type sessionRun struct {
	Results    []UpdateResult
	Fallbacks  []bool // parallel to Results: batch was followed by a full re-solve
	Q          float64
	Membership graph.Membership
}

func runSessionBatches(t *testing.T, g *graph.Graph, opt Options, batches [][]EdgeOp, driftQ float64) sessionRun {
	t.Helper()
	seeds := replaySeeds(t, g, batches, 2)
	// Run's own mapping, so session worlds partition exactly like the batch
	// oracle they are compared against.
	layout, err := partition.Build(g, opt.PartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
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
		var dq, dt float64 // the server's drift arithmetic
		for i, batch := range batches {
			before := ses.Modularity()
			res, err := ses.ApplyUpdates(batch, seeds[i])
			if err != nil {
				return err
			}
			results[r] = append(results[r], res)
			dq += math.Abs(res.Q - before)
			dt += float64(res.Touched) / float64(g.NumVertices())
			fell := driftQ > 0 && (dq > driftQ || dt > 0.35)
			if fell {
				if err := ses.Solve(); err != nil {
					return err
				}
				dq, dt = 0, 0
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
		if len(results[r]) != len(results[0]) || !slices.Equal(fallbacks[r], fallbacks[0]) {
			t.Fatalf("rank %d saw %d results and fallbacks %v, rank 0 saw %d and %v", r, len(results[r]), fallbacks[r], len(results[0]), fallbacks[0])
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

// replaySeeds replays the serving driver's seeding on the test side: for
// each batch, its k-hop ball (ballOf) in the graph as the batch leaves it.
func replaySeeds(t *testing.T, g *graph.Graph, batches [][]EdgeOp, k int) [][]int {
	t.Helper()
	led := ledgerOf(g)
	seeds := make([][]int, len(batches))
	for i, batch := range batches {
		led.apply(batch)
		seeds[i] = ballOf(led.graph(t, g.NumVertices()), batch, k)
	}
	return seeds
}

// ballOf returns the vertices within k hops of the endpoints of ops in g.
func ballOf(g *graph.Graph, ops []EdgeOp, k int) []int {
	seen := make(map[int]bool)
	var ball []int
	reach := func(v int) {
		if !seen[v] {
			seen[v] = true
			ball = append(ball, v)
		}
	}
	for _, op := range ops {
		reach(op.U)
		reach(op.V)
	}
	for hop, lo := 0, 0; hop < k; hop++ {
		hi := len(ball)
		for _, u := range ball[lo:hi] {
			nbrs, _ := g.Neighbors(u)
			for _, v := range nbrs {
				reach(int(v))
			}
		}
		lo = hi
	}
	return ball
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
	withInvariants(t)
	g := goldenGraph(t)
	for _, p := range []int{1, 2, 4} {
		opt := Options{P: p}
		batch, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		run := runSessionBatches(t, g, opt, nil, 0)
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
	withInvariants(t)
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
	const (
		driftQ = 0.05 // the server's default
		qSlack = 0.03 // heuristic-to-heuristic wobble allowance on top of driftQ
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{P: tc.p, DHigh: 8}
			stream := randomStream(tc.g, 42, 6, 12, 0.4)
			led := ledgerOf(tc.g)
			run := runSessionBatches(t, tc.g, opt, stream, driftQ)
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
				if q < oracle.Modularity-driftQ-qSlack {
					t.Errorf("batch %d: incremental Q %.6f below oracle %.6f - bound %.3f",
						i, q, oracle.Modularity, driftQ+qSlack)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Determinism: the same stream run twice must produce bit-identical results.

func TestIncrementalDeterminism(t *testing.T) {
	withInvariants(t)
	g := goldenGraph(t)
	opt := Options{P: 3, DHigh: 6}
	stream := randomStream(g, 99, 4, 10, 0.3)
	ref := runSessionBatches(t, g, opt, stream, 0.05)
	run := runSessionBatches(t, g, opt, stream, 0.05)
	for i := range ref.Results {
		a, b := ref.Results[i], run.Results[i]
		if a.Moved != b.Moved || a.Touched != b.Touched || a.Iters != b.Iters ||
			ref.Fallbacks[i] != run.Fallbacks[i] || math.Float64bits(a.Q) != math.Float64bits(b.Q) {
			t.Fatalf("second run batch %d: %+v != first run %+v", i, b, a)
		}
	}
	if math.Float64bits(ref.Q) != math.Float64bits(run.Q) {
		t.Fatalf("second run: final Q %x != first run %x", run.Q, ref.Q)
	}
	if !sameMembership(ref.Membership, run.Membership) {
		t.Fatal("second run: final membership differs from the first")
	}
}

// ---------------------------------------------------------------------------
// Transport independence: a session world over TCP loopback endpoints must
// match the in-process world bit for bit.

func TestSessionTCPMatchesInproc(t *testing.T) {
	withInvariants(t)
	g := goldenGraph(t)
	opt := Options{P: 2, DHigh: 6}
	stream := randomStream(g, 7, 2, 8, 0.3)
	inproc := runSessionBatches(t, g, opt, stream, 0)
	seeds := replaySeeds(t, g, stream, 2)

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
			for i, batch := range stream {
				res, err := ses.ApplyUpdates(batch, seeds[i])
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

// TestValidateOpsWeights pins the update half of the quantise gate: every
// weight an op carries must be one partition.Quantise accepts and nonzero,
// and the batch's inserts must keep 2m within partition.MaxWeight2; a
// refused batch fails ApplyUpdates before any rank mutates anything.
func TestValidateOpsWeights(t *testing.T) {
	g := goldenGraph(t)
	layout, err := partition.Build(g, partition.Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(1, func(c comm.Comm) error {
		ses, err := NewSession(c, layout.Parts[0].CloneForServing(), Options{P: 1})
		if err != nil {
			return err
		}
		defer ses.Close()
		if err := ses.Solve(); err != nil {
			return err
		}
		big := partition.Dequantise(partition.MaxWeight2 / 4)
		for _, tc := range []struct {
			name   string
			ops    []EdgeOp
			weight bool // the refusal must wrap partition.ErrWeight
		}{
			{"nan", []EdgeOp{{U: 0, V: 1, W: math.NaN()}}, true},
			{"+inf", []EdgeOp{{U: 0, V: 1, W: math.Inf(1)}}, true},
			{"negative", []EdgeOp{{U: 0, V: 1, W: -1}}, true},
			{"zero", []EdgeOp{{U: 0, V: 1, W: 0}}, false},
			{"rounds-to-zero", []EdgeOp{{U: 0, V: 1, W: 1e-9}}, true},
			{"2m-past-limit", []EdgeOp{{U: 0, V: 1, W: big}, {U: 0, V: 2, W: big}}, true},
		} {
			if err := ses.ValidateOps(tc.ops); err == nil || tc.weight != errors.Is(err, partition.ErrWeight) {
				t.Errorf("%s: ValidateOps = %v, want an error (wrapping ErrWeight: %v)", tc.name, err, tc.weight)
			}
			q := ses.Modularity()
			if _, err := ses.ApplyUpdates(tc.ops, nil); err == nil || ses.Modularity() != q {
				t.Errorf("%s: ApplyUpdates = %v, Q %v -> %v", tc.name, err, q, ses.Modularity())
			}
		}
		// One insert of a quarter of the limit fits.
		ok := []EdgeOp{{U: 0, V: 1, W: big}}
		if err := ses.ValidateOps(ok); err != nil {
			t.Errorf("representable batch refused: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSessionAttach moves solved sessions into a fresh world for every
// batch, as the serving layer does, and pins the results to one long-lived
// world's; an endpoint of a world of another size is refused.
func TestSessionAttach(t *testing.T) {
	g, _, err := gen.Caveman(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{P: 2}
	batches := [][]EdgeOp{{{U: 2, V: 14, W: 1.5}}, {{U: 2, V: 14, W: 1.5, Del: true}, {U: 3, V: 20, W: 2}}}
	want := runSessionBatches(t, g, opt, batches, 0)
	seeds := replaySeeds(t, g, batches, 2)

	layout, err := partition.Build(g, opt.PartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, opt.P)
	err = comm.RunWorld(opt.P, func(c comm.Comm) error {
		ses, err := NewSession(c, layout.Parts[c.Rank()].CloneForServing(), opt)
		if err != nil {
			return err
		}
		sessions[c.Rank()] = ses
		return ses.Solve()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range batches {
		res := make([]UpdateResult, opt.P)
		err := comm.RunWorld(opt.P, func(c comm.Comm) error {
			ses := sessions[c.Rank()]
			if err := ses.Attach(c); err != nil {
				return err
			}
			var err error
			res[c.Rank()], err = ses.ApplyUpdates(batch, seeds[i])
			return err
		})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res[0] != want.Results[i] {
			t.Fatalf("batch %d: attached result %+v, one world gave %+v", i, res[0], want.Results[i])
		}
	}
	if q := sessions[0].Modularity(); math.Float64bits(q) != math.Float64bits(want.Q) {
		t.Fatalf("attached final Q %x, one world gave %x", q, want.Q)
	}
	if err := comm.RunWorld(1, func(c comm.Comm) error { return sessions[0].Attach(c) }); err == nil {
		t.Fatal("a session of a 2-rank world attached to a 1-rank endpoint")
	}
}
