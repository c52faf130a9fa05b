package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/wire"
)

// Property-style audits of the clustering loop's internal state: after
// every iteration, the distributed Σtot/size aggregates and the reduced
// global modularity must reconcile with ground truth recomputed serially
// from the authoritative labels — on clean transports and under benign
// chaos schedules alike.

// auditConfigs is the heuristic × partitioning matrix the audits sweep.
var auditConfigs = []struct {
	h  Heuristic
	pk partition.Kind
}{
	{HeuristicEnhanced, partition.Delegate},
	{HeuristicEnhanced, partition.OneD},
	{HeuristicSimple, partition.Delegate},
	{HeuristicSimple, partition.OneD},
	{HeuristicStrict, partition.Delegate},
	{HeuristicStrict, partition.OneD},
}

// aggregateAuditHook reconciles, on every rank after every iteration:
//
//  1. the owner-held Σtot/size of each community against values refolded
//     serially from the labels and per-vertex weighted degrees, and
//  2. the distributed modularity reduction against a serial recompute
//     from the same labels, Σin from a plain arc scan.
//
// The recompute deliberately bypasses the incremental delta pipeline
// (flushDeltas, caches) it audits; only the labels are shared.
func aggregateAuditHook(s *stage, iter int, q float64) error {
	totVec := make([]float64, s.n)
	sizeVec := make([]float64, s.n)
	var in float64
	for i, u := range s.sg.Owned {
		cu := s.comm[u]
		totVec[cu] += s.sg.OwnedWDeg[i]
		sizeVec[cu]++
		for _, a := range s.sg.AdjOwned[i] {
			if s.comm[a.To] == cu {
				in += a.W
			}
		}
	}
	for i, h := range s.sg.Hubs {
		ch := s.comm[h]
		if h%s.p == s.rnk {
			// The tracking rank accounts for the replicated hub exactly once.
			totVec[ch] += s.sg.HubWDeg[i]
			sizeVec[ch]++
		}
		// Hub adjacency is split across ranks: every rank scans its share.
		for _, a := range s.sg.AdjHub[i] {
			if s.comm[a.To] == ch {
				in += a.W
			}
		}
	}
	gTot, err := allreduceF64SliceSum(s.c, totVec)
	if err != nil {
		return err
	}
	gSize, err := allreduceF64SliceSum(s.c, sizeVec)
	if err != nil {
		return err
	}
	gIn, err := comm.AllreduceFloat64Sum(s.c, in)
	if err != nil {
		return err
	}
	tol := 1e-6 * math.Max(1, s.m2)
	for c := s.rnk; c < s.n; c += s.p {
		if math.Abs(gTot[c]-s.ownTot[c]) > tol {
			return fmt.Errorf("iter %d rank %d community %d: ownTot %g, ground truth %g",
				iter, s.rnk, c, s.ownTot[c], gTot[c])
		}
		if int32(math.Round(gSize[c])) != s.ownSize[c] {
			return fmt.Errorf("iter %d rank %d community %d: ownSize %d, ground truth %g",
				iter, s.rnk, c, s.ownSize[c], gSize[c])
		}
	}
	var totTerm float64
	for _, t := range gTot {
		x := t / s.m2
		totTerm += s.gamma * x * x
	}
	qSerial := gIn/s.m2 - totTerm
	if math.Abs(qSerial-q) > 1e-6 {
		return fmt.Errorf("iter %d rank %d: distributed Q %.12f, serial recompute %.12f",
			iter, s.rnk, q, qSerial)
	}
	return nil
}

func TestAggregateReconciliation(t *testing.T) {
	testIterHook = aggregateAuditHook
	defer func() { testIterHook = nil }()
	for _, cfg := range auditConfigs {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := randomGraph(seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(g, Options{P: 4, Heuristic: cfg.h, Partitioning: cfg.pk}); err != nil {
				t.Fatalf("h=%v part=%v seed=%d: %v", cfg.h, cfg.pk, seed, err)
			}
		}
	}
}

// allreduceF64SliceSum sums a fixed-length vector elementwise across ranks
// (ground truth only: the solver itself never reduces whole tables).
func allreduceF64SliceSum(c comm.Comm, vs []float64) ([]float64, error) {
	encode := func(vs []float64) []byte {
		buf := wire.NewBuffer(len(vs) * 8)
		for _, v := range vs {
			buf.PutF64(v)
		}
		return buf.Bytes()
	}
	decode := func(p []byte) []float64 {
		rd := wire.NewReader(p)
		out := make([]float64, len(vs))
		for i := range out {
			out[i] = rd.F64()
		}
		return out
	}
	out, err := comm.AllreduceBytes(c, encode(vs), func(a, b []byte) []byte {
		va, vb := decode(a), decode(b)
		for i := range va {
			va[i] += vb[i]
		}
		return encode(va)
	})
	if err != nil {
		return nil, err
	}
	return decode(out), nil
}

// benignCoreChaos mirrors the comm package's benign schedule: reordering
// delays, duplicates, and retried transient send failures — the faults
// that must not change any result.
func benignCoreChaos(seed int64) comm.ChaosOptions {
	return comm.ChaosOptions{
		Seed:         seed,
		DelayProb:    0.25,
		MaxDelay:     200 * time.Microsecond,
		DupProb:      0.15,
		SendFailProb: 0.1,
	}
}

func TestAggregateReconciliationUnderChaos(t *testing.T) {
	testIterHook = aggregateAuditHook
	defer func() { testIterHook = nil }()
	for _, cfg := range auditConfigs {
		g, err := randomGraph(11)
		if err != nil {
			t.Fatal(err)
		}
		err = comm.RunWorldChaos(4, benignCoreChaos(int64(cfg.h)*10+int64(cfg.pk)), func(c comm.Comm) error {
			_, err := RunRank(c, g, Options{P: 4, Heuristic: cfg.h, Partitioning: cfg.pk})
			return err
		})
		if err != nil {
			t.Fatalf("h=%v part=%v: %v", cfg.h, cfg.pk, err)
		}
	}
}

// TestStage1ModularityMonotone asserts the per-iteration global modularity
// of the first clustering stage never decreases under the enhanced and
// strict heuristics. HeuristicSimple is exempt by design: the paper's
// Figures 3-4 document its cross-rank label bouncing, which oscillates Q
// (the probe that motivated this exemption measured drops up to ~0.04);
// for it the trace must merely stay finite and within modularity bounds.
func TestStage1ModularityMonotone(t *testing.T) {
	for _, cfg := range auditConfigs {
		for seed := int64(1); seed <= 5; seed++ {
			g, err := randomGraph(seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(g, Options{P: 4, Heuristic: cfg.h, Partitioning: cfg.pk, TrackTrace: true})
			if err != nil {
				t.Fatalf("h=%v part=%v seed=%d: %v", cfg.h, cfg.pk, seed, err)
			}
			tr := res.QTrace[:res.Stage1Iters]
			for i, q := range tr {
				if math.IsNaN(q) || q < -1 || q > 1 {
					t.Fatalf("h=%v part=%v seed=%d iter %d: Q=%v out of bounds", cfg.h, cfg.pk, seed, i+1, q)
				}
				if i > 0 && cfg.h != HeuristicSimple && q < tr[i-1]-1e-9 {
					t.Fatalf("h=%v part=%v seed=%d: Q decreased at iter %d: %.12f -> %.12f",
						cfg.h, cfg.pk, seed, i+1, tr[i-1], q)
				}
			}
		}
	}
}

// chaosRun executes a full distributed run over a chaos-wrapped in-process
// world and assembles the membership and final modularity, mirroring what
// Run reports.
func chaosRun(t *testing.T, g *graph.Graph, opt Options, co comm.ChaosOptions) (graph.Membership, float64) {
	t.Helper()
	var mu sync.Mutex
	m := make(graph.Membership, g.NumVertices())
	var finalQ float64
	err := comm.RunWorldChaos(opt.P, co, func(c comm.Comm) error {
		rr, err := RunRank(c, g, opt)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for i, u := range rr.Tracked {
			m[u] = rr.Labels[i]
		}
		if c.Rank() == 0 {
			finalQ = rr.Modularity
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Normalize()
	return m, finalQ
}

// TestChaosEndToEndDeterminism is the algorithm-level chaos guarantee:
// a full stage-1 + stage-2 Louvain run under message reordering, delays,
// duplicates, and retried transient failures produces exactly the final
// modularity and community assignment of a clean run — bit-identical, not
// approximately equal — because (src, tag) matching and per-pair FIFO
// fully determine every collective's result. Runs on a random graph and on
// the golden fixture.
func TestChaosEndToEndDeterminism(t *testing.T) {
	random, err := randomGraph(21)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range []*graph.Graph{random, goldenGraph(t)} {
		for _, cfg := range auditConfigs {
			opt := Options{P: 4, Heuristic: cfg.h, Partitioning: cfg.pk}
			label := fmt.Sprintf("graph %d h=%v part=%v", gi, cfg.h, cfg.pk)
			clean, err := Run(g, opt)
			if err != nil {
				t.Fatalf("%s clean: %v", label, err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				m, q := chaosRun(t, g, opt, benignCoreChaos(seed))
				if q != clean.Modularity {
					t.Fatalf("%s chaos seed %d: Q %.17g, clean %.17g", label, seed, q, clean.Modularity)
				}
				if len(m) != len(clean.Membership) {
					t.Fatalf("%s chaos seed %d: membership size %d, clean %d",
						label, seed, len(m), len(clean.Membership))
				}
				for u := range m {
					if m[u] != clean.Membership[u] {
						t.Fatalf("%s chaos seed %d: vertex %d in community %d, clean %d",
							label, seed, u, m[u], clean.Membership[u])
					}
				}
			}
		}
	}
}

// TestCommDeadlineOption checks the Options.CommDeadline plumbing: a rank
// that stops participating makes the others fail with comm.ErrTimeout (or
// the peer-down cascade) instead of hanging.
func TestCommDeadlineOption(t *testing.T) {
	g, err := randomGraph(5)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- comm.RunWorld(4, func(c comm.Comm) error {
			if c.Rank() == 3 {
				return nil // desert the world before clustering starts
			}
			_, err := RunRank(c, g, Options{P: 4, CommDeadline: 200 * time.Millisecond})
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("world succeeded with a deserted rank")
		}
		// Deserters are detected either by the transport (peer down) or by
		// the receive deadline; both are acceptable, hanging is not.
		if !errors.Is(err, comm.ErrPeerDown) && !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("untyped failure: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("world hung despite CommDeadline")
	}
}
