package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Tests for mid-solve vertex migration (migrate.go): the off-switch must be
// byte-identical to the pre-feature solver, every (policy, seed) pair must
// be bit-identical across worker counts, collective engines, transports,
// and benign chaos, and on the planted-hub fixture the trigger must
// actually fire (so none of the above is vacuous).

// skewedGraph is the planted-hub load-imbalance fixture: under 1-D
// round-robin partitioning at P=4, every hub lands on rank 0.
func skewedGraph(t *testing.T) (*graph.Graph, graph.Membership) {
	t.Helper()
	g, truth, err := gen.PlantedHubs(2048, 32, 16, 4, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g, truth
}

// skewedRMAT is the second skewed fixture: a scale-9 R-MAT with the skew
// knob turned up from the Graph500 0.57 to 0.70, fattening the degree tail
// (see gen.SetSkew / EXPERIMENTS.md) without planting hubs by hand.
func skewedRMAT(t *testing.T) *graph.Graph {
	t.Helper()
	cfg := gen.Graph500RMAT(9, 11)
	cfg.EdgeFactor = 8
	if err := cfg.SetSkew(0.70); err != nil {
		t.Fatal(err)
	}
	g, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rebalanceOpt is the test baseline: threshold low enough to fire on the
// skewed fixture, defaults for hysteresis/cooldown/seed.
func rebalanceOpt(p int, pk partition.Kind, policy string) Options {
	return Options{
		P:               p,
		Partitioning:    pk,
		RebalanceRatio:  1.1,
		RebalancePolicy: policy,
	}
}

func sameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Modularity != want.Modularity {
		t.Fatalf("%s: Q %.17g, want %.17g", label, got.Modularity, want.Modularity)
	}
	for u := range want.Membership {
		if got.Membership[u] != want.Membership[u] {
			t.Fatalf("%s: vertex %d in community %d, want %d", label, u, got.Membership[u], want.Membership[u])
		}
	}
	if got.RebalanceEvents != want.RebalanceEvents || got.MigratedVertices != want.MigratedVertices {
		t.Fatalf("%s: events=%d migrated=%d, want events=%d migrated=%d", label,
			got.RebalanceEvents, got.MigratedVertices, want.RebalanceEvents, want.MigratedVertices)
	}
}

// TestRebalanceOffMatchesGolden pins the off-switch: RebalanceRatio = 0
// must reproduce the committed pre-feature golden fixtures label for label
// and bit for bit.
func TestRebalanceOffMatchesGolden(t *testing.T) {
	g := goldenGraph(t)
	for _, p := range []int{1, 2, 4} {
		res, err := Run(g, Options{P: p, RebalanceRatio: 0})
		if err != nil {
			t.Fatal(err)
		}
		wantQ, wantLabels := parseGolden(t, goldenPath(HeuristicEnhanced, p))
		if res.Modularity != wantQ {
			t.Errorf("p=%d: Q does not match pre-feature golden", p)
		}
		for u := range res.Membership {
			if res.Membership[u] != wantLabels[u] {
				t.Fatalf("p=%d vertex %d: community %d, golden %d", p, u, res.Membership[u], wantLabels[u])
			}
		}
		if res.RebalanceEvents != 0 || res.MigratedVertices != 0 {
			t.Errorf("p=%d: off run reports events=%d migrated=%d", p, res.RebalanceEvents, res.MigratedVertices)
		}
		if p > 1 && res.BalanceRatio < 1 {
			t.Errorf("p=%d: BalanceRatio = %g, want >= 1", p, res.BalanceRatio)
		}
	}
}

// TestRebalanceNoneMatchesOff checks the control arm: the "none" policy
// runs the work-vector reduction and the trigger machinery but never
// migrates, and must be bit-identical to a run with the feature off — the
// direct witness that the record's work-vector tail does not perturb Q.
func TestRebalanceNoneMatchesOff(t *testing.T) {
	g, _ := skewedGraph(t)
	for _, pk := range []partition.Kind{partition.Delegate, partition.OneD} {
		want, err := Run(g, Options{P: 4, Partitioning: pk})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(g, rebalanceOpt(4, pk, "none"))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("part=%v", pk)
		if got.RebalanceEvents != 0 {
			t.Fatalf("%s: none policy migrated", label)
		}
		got.RebalanceEvents, got.MigratedVertices = want.RebalanceEvents, want.MigratedVertices
		sameRun(t, label, got, want)
	}
}

// TestRebalanceTriggersOnSkew asserts the determinism matrix below is not
// vacuous: on the planted-hub fixture under 1-D partitioning the greedy
// policy must actually migrate, and the final quality must stay in family
// with the non-migrating run.
func TestRebalanceTriggersOnSkew(t *testing.T) {
	g, _ := skewedGraph(t)
	off, err := Run(g, Options{P: 4, Partitioning: partition.OneD})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(g, rebalanceOpt(4, partition.OneD, "greedy"))
	if err != nil {
		t.Fatal(err)
	}
	if on.RebalanceEvents < 1 || on.MigratedVertices < 1 {
		t.Fatalf("greedy never fired on the skewed fixture: events=%d migrated=%d (work balance %.3f)",
			on.RebalanceEvents, on.MigratedVertices, off.BalanceRatio)
	}
	if math.Abs(on.Modularity-off.Modularity) > 0.05 {
		t.Errorf("rebalanced Q %.4f drifted from static Q %.4f", on.Modularity, off.Modularity)
	}
	if on.BalanceRatio >= off.BalanceRatio {
		t.Errorf("rebalancing did not improve work balance: %.3f -> %.3f", off.BalanceRatio, on.BalanceRatio)
	}
}

// TestRebalanceDeterminism is the contract of docs/PERFORMANCE.md: any
// fixed (policy, seed) pair is bit-identical across worker counts, for
// every P × partitioning combination, on the golden graph, the skewed
// planted-hub fixture, and a skewed R-MAT.
func TestRebalanceDeterminism(t *testing.T) {
	gGolden := goldenGraph(t)
	gSkew, _ := skewedGraph(t)
	gRMAT := skewedRMAT(t)
	for gi, g := range []*graph.Graph{gGolden, gSkew, gRMAT} {
		for _, pk := range []partition.Kind{partition.Delegate, partition.OneD} {
			for _, p := range []int{1, 2, 4} {
				for _, policy := range []string{"greedy", "ideal"} {
					base := rebalanceOpt(p, pk, policy)
					base.Workers = 1
					want, err := Run(g, base)
					if err != nil {
						t.Fatalf("g=%d part=%v p=%d %s: %v", gi, pk, p, policy, err)
					}
					opt := base
					opt.Workers = 4
					got, err := Run(g, opt)
					if err != nil {
						t.Fatalf("g=%d part=%v p=%d %s workers=4: %v", gi, pk, p, policy, err)
					}
					sameRun(t, fmt.Sprintf("g=%d part=%v p=%d %s workers=4", gi, pk, p, policy), got, want)
				}
			}
		}
	}
}

// TestRebalanceTCPBitIdentity reruns the firing configuration over the TCP
// loopback transport: same Q, same labels, bit for bit.
func TestRebalanceTCPBitIdentity(t *testing.T) {
	g, _ := skewedGraph(t)
	for _, policy := range []string{"greedy", "ideal"} {
		opt := rebalanceOpt(4, partition.OneD, policy)
		want, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		m, q := runTCPRanks(t, g, opt)
		if q != want.Modularity {
			t.Fatalf("%s: tcp Q %.17g, inproc %.17g", policy, q, want.Modularity)
		}
		for u := range want.Membership {
			if m[u] != want.Membership[u] {
				t.Fatalf("%s: tcp vertex %d in community %d, inproc %d", policy, u, m[u], want.Membership[u])
			}
		}
	}
}

// TestRebalanceChaosDeterminism extends the chaos battery to the migration
// exchanges: benign reordering, delays, duplicates, and retried transient
// send failures across the four-round migration protocol must not shift a
// single label.
func TestRebalanceChaosDeterminism(t *testing.T) {
	g, _ := skewedGraph(t)
	opt := rebalanceOpt(4, partition.OneD, "greedy")
	clean, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if clean.RebalanceEvents < 1 {
		t.Fatal("fixture did not trigger migration; chaos coverage is vacuous")
	}
	for seed := int64(1); seed <= 3; seed++ {
		m, q := chaosRun(t, g, opt, benignCoreChaos(seed))
		if q != clean.Modularity {
			t.Fatalf("chaos seed %d: Q %.17g, clean %.17g", seed, q, clean.Modularity)
		}
		for u := range m {
			if m[u] != clean.Membership[u] {
				t.Fatalf("chaos seed %d vertex %d: community %d, clean %d",
					seed, u, m[u], clean.Membership[u])
			}
		}
	}
}

// TestRebalanceAggregateReconciliation runs the per-iteration aggregate
// audit (serial ground-truth refold of Σtot/size and Q) on worlds that
// migrate: the audit recomputes from the live post-migration subgraphs, so
// any double-counted or dropped vertex surfaces immediately.
func TestRebalanceAggregateReconciliation(t *testing.T) {
	testIterHook = aggregateAuditHook
	defer func() { testIterHook = nil }()
	g, _ := skewedGraph(t)
	for _, pk := range []partition.Kind{partition.Delegate, partition.OneD} {
		for _, policy := range []string{"greedy", "ideal"} {
			res, err := Run(g, rebalanceOpt(4, pk, policy))
			if err != nil {
				t.Fatalf("part=%v %s: %v", pk, policy, err)
			}
			_ = res
		}
	}
}

// TestRebalanceMessageBudget pins the collective-schedule cost of merely
// enabling the feature: the work vector rides in the tail of the existing
// per-iteration record, so the message count is the 11 of
// TestIterationSingleAllreduce. A threshold that never fires keeps migration
// exchanges out of the count. Merged (stage-2) stages run with migration off
// by design (see run.go) and are excluded via s.pol.
func TestRebalanceMessageBudget(t *testing.T) {
	opt := rebalanceOpt(4, partition.OneD, "greedy")
	opt.RebalanceRatio = 1e9 // trigger machinery on, but never fires
	assertIterationBudget(t, opt, func(s *stage) bool { return s.pol != nil })
}
