package dserver

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the dserver protocol golden files")

// fixtureGraph is the deterministic graph behind the golden fixtures and
// most tests: 5 cliques of 6 vertices joined in a ring.
func fixtureGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := gen.Caveman(5, 6)
	if err != nil {
		t.Fatalf("caveman: %v", err)
	}
	return g
}

func newWorld(t *testing.T, g *graph.Graph, opt Options) *World {
	t.Helper()
	w, err := New(g, opt)
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

// TestWorldMatchesBatchRun pins the resident world's converged state to the
// batch pipeline: same membership, same modularity bits.
func TestWorldMatchesBatchRun(t *testing.T) {
	g := fixtureGraph(t)
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			res, err := core.Run(g, core.Options{P: p})
			if err != nil {
				t.Fatalf("core.Run: %v", err)
			}
			w := newWorld(t, g, Options{P: p})
			m, err := w.Membership()
			if err != nil {
				t.Fatalf("membership: %v", err)
			}
			if len(m) != len(res.Membership) {
				t.Fatalf("membership length %d, want %d", len(m), len(res.Membership))
			}
			for v := range m {
				if m[v] != res.Membership[v] {
					t.Fatalf("vertex %d: community %d, want %d", v, m[v], res.Membership[v])
				}
			}
			q, err := w.Modularity()
			if err != nil {
				t.Fatalf("modularity: %v", err)
			}
			// The session recomputes Q over the projected resident stage, so
			// the summation order can differ from the batch pipeline's by an
			// ulp; the value itself must agree.
			if d := q - res.Modularity; d > 1e-9 || d < -1e-9 {
				t.Fatalf("modularity %x, want %x (|diff| %g)", q, res.Modularity, d)
			}
			// CommunityOf answers must be consistent with the assembled
			// membership: same label for every vertex of a community.
			rep := make(map[int]int)
			for v := 0; v < g.NumVertices(); v++ {
				c, err := w.CommunityOf(v)
				if err != nil {
					t.Fatalf("community of %d: %v", v, err)
				}
				if prev, ok := rep[m[v]]; ok && prev != c {
					t.Fatalf("community %d has labels %d and %d", m[v], prev, c)
				}
				rep[m[v]] = c
			}
		})
	}
}

// TestServedLabelsAreMembers pins the serving contract across the
// partitioner's π (Subgraph.Pi): the sessions solve in π-space, yet
// after a full solve every CommunityOf(v) answer is an input vertex id in
// v's own community, and Membership equals core.Run's on the same graph.
// After a bare Update an answer is still an input vertex id that names v's
// community, one per community, but the batch may have moved that vertex
// out of it. The R-MAT's ids are unpermuted, so π moves every one of them;
// DHigh 16 puts hubs, which their owners report, among the answers.
func TestServedLabelsAreMembers(t *testing.T) {
	g, _, err := gen.ParseSpec("rmat:scale=9,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, p := range []int{1, 2, 4} {
		for _, copt := range []core.Options{{Partitioning: partition.OneD}, {}, {DHigh: 16}} {
			res, err := core.Run(g, core.Options{P: p, Partitioning: copt.Partitioning, DHigh: copt.DHigh})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("p=%d/%v/dhigh=%d (%d hubs)", p, copt.Partitioning, copt.DHigh, res.HubCount)
			w := newWorld(t, g, Options{P: p, Core: copt})
			check := func(when string, members bool) graph.Membership {
				t.Helper()
				m, err := w.Membership()
				if err != nil {
					t.Fatal(err)
				}
				label := map[int]int{} // community → its answer
				for v := 0; v < n; v++ {
					c, err := w.CommunityOf(v)
					if err != nil {
						t.Fatal(err)
					}
					if c < 0 || c >= n {
						t.Fatalf("%s %s: community of %d answered %d, not a vertex id", name, when, v, c)
					}
					if members && m[c] != m[v] {
						t.Fatalf("%s %s: community of %d answered %d, not a member of its community", name, when, v, c)
					}
					if l, ok := label[m[v]]; ok && l != c {
						t.Fatalf("%s %s: community of %d answered %d, of its fellow members %d", name, when, v, c, l)
					}
					label[m[v]] = c
				}
				named := map[int]int{} // answer → the community it names
				for k, c := range label {
					if o, ok := named[c]; ok {
						t.Fatalf("%s %s: communities %d and %d share the answer %d", name, when, o, k, c)
					}
					named[c] = k
				}
				return m
			}
			if m := check("after New", true); !slices.Equal(m, res.Membership) {
				t.Errorf("%s: world membership differs from core.Run's", name)
			}
			if _, err := w.Update([]Op{{U: 1, V: 300, W: 2}, {U: 5, V: 77, W: 1}}); err != nil {
				t.Fatal(err)
			}
			check("after Update", false)
			if _, err := w.Resolve(); err != nil {
				t.Fatal(err)
			}
			check("after Resolve", true)
		}
	}
}

// TestWorldNeighborhood checks the merged adjacency answer against the
// input graph, before and after updates.
func TestWorldNeighborhood(t *testing.T) {
	g := fixtureGraph(t)
	w := newWorld(t, g, Options{P: 2})
	want := make(map[int]map[int]float64)
	for _, e := range g.Edges() {
		if want[e.U] == nil {
			want[e.U] = make(map[int]float64)
		}
		if want[e.V] == nil {
			want[e.V] = make(map[int]float64)
		}
		want[e.U][e.V] += e.W
		want[e.V][e.U] += e.W
	}
	check := func(v int) {
		t.Helper()
		arcs, err := w.Neighborhood(v)
		if err != nil {
			t.Fatalf("neighborhood %d: %v", v, err)
		}
		if len(arcs) != len(want[v]) {
			t.Fatalf("vertex %d: %d arcs, want %d (%v)", v, len(arcs), len(want[v]), arcs)
		}
		for _, a := range arcs {
			if got := partition.Dequantise(a.W); want[v][a.To] != got {
				t.Fatalf("vertex %d arc to %d: weight %g, want %g", v, a.To, got, want[v][a.To])
			}
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		check(v)
	}
	if _, err := w.Update([]Op{{U: 0, V: 17, W: 2.5}, {U: 3, V: 4, Del: true}}); err != nil {
		t.Fatalf("update: %v", err)
	}
	want[0][17], want[17][0] = 2.5, 2.5
	delete(want[3], 4)
	delete(want[4], 3)
	for _, v := range []int{0, 3, 4, 17} {
		check(v)
	}
}

// TestWorldLedgerValidation exercises the driver-side edge ledger: deletes
// of absent edges and bad ops are rejected atomically, before any rank
// sees the batch.
func TestWorldLedgerValidation(t *testing.T) {
	g := fixtureGraph(t)
	w := newWorld(t, g, Options{P: 2})
	before := w.Stats()
	cases := []struct {
		name string
		ops  []Op
	}{
		{"delete-absent", []Op{{U: 0, V: 29, Del: true}}},
		{"delete-twice", []Op{{U: 0, V: 1, Del: true}, {U: 0, V: 1, Del: true}}},
		{"self-loop", []Op{{U: 3, V: 3, W: 1}}},
		{"bad-weight", []Op{{U: 0, V: 29, W: -1}}},
		{"out-of-range", []Op{{U: 0, V: 30, W: 1}}},
		{"mixed-bad", []Op{{U: 0, V: 29, W: 1}, {U: 1, V: 1, W: 1}}},
	}
	for _, tc := range cases {
		if _, err := w.Update(tc.ops); err == nil {
			t.Errorf("%s: update succeeded, want error", tc.name)
		}
	}
	after := w.Stats()
	if after.Batches != before.Batches || after.Edges != before.Edges {
		t.Fatalf("rejected updates mutated state: %+v -> %+v", before, after)
	}
	// Within-batch sequencing: insert then delete of the same new edge is
	// valid and nets out to no edge.
	if _, err := w.Update([]Op{{U: 0, V: 29, W: 1}, {U: 0, V: 29, Del: true}}); err != nil {
		t.Fatalf("insert+delete batch: %v", err)
	}
	if got := w.Stats().Edges; got != before.Edges {
		t.Fatalf("edges %d after net-zero batch, want %d", got, before.Edges)
	}
}

// TestWorldSeedsMatchLedgerBFS holds the incremental seed set to a plain
// breadth-first walk over a graph.Graph rebuilt from the ledger the batch
// leaves: the batch inserts, deletes, and inserts and deletes one new edge,
// on a layout with hubs, at KHops 0 to 3.
func TestWorldSeedsMatchLedgerBFS(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	copt := core.Options{P: 4, DHigh: 8}
	layout, err := partition.Build(g, copt.PartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(layout.Hubs) == 0 {
		t.Fatal("fixture has no hubs at DHigh 8")
	}
	w := newWorld(t, g, Options{P: 4, Core: copt})
	cur := w.snap.Load().adj
	n := g.NumVertices()
	has := func(u, v int) bool {
		_, found := slices.BinarySearchFunc(cur[u], v, func(a partition.Arc, t int) int { return cmp.Compare(a.To, t) })
		return found
	}
	absent := func(u int) int { // the first vertex after u that u has no edge to
		v := (u + 1) % n
		for v == u || has(u, v) {
			v = (v + 1) % n
		}
		return v
	}
	del := func(u int) Op { // u's last edge that is not a self-loop
		for u < n && len(cur[u]) == 0 {
			u++
		}
		j := len(cur[u]) - 1
		for cur[u][j].To == u {
			j--
		}
		return Op{U: u, V: cur[u][j].To, Del: true}
	}
	var hi int // a vertex of the highest degree, a hub
	for v := range cur {
		if len(cur[v]) > len(cur[hi]) {
			hi = v
		}
	}
	ops := []Op{
		{U: 3, V: absent(3), W: 1},
		{U: hi, V: absent(hi), W: 2},
		del(hi),
		del(40),
		{U: 60, V: absent(60), W: 1},
		{U: 60, V: absent(60), Del: true},
	}
	batch, after, _, err := w.stage(cur, ops)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	for u, arcs := range after {
		for _, a := range arcs {
			if u < a.To {
				edges = append(edges, graph.Edge{U: u, V: a.To, W: partition.Dequantise(a.W)})
			}
		}
	}
	rebuilt, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 3; k++ {
		dist := make(map[int]int)
		var queue []int
		for _, op := range batch {
			for _, v := range []int{op.U, op.V} {
				if _, ok := dist[v]; !ok {
					dist[v] = 0
					queue = append(queue, v)
				}
			}
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if dist[u] == k {
				continue
			}
			nbrs, _ := rebuilt.Neighbors(u)
			for _, v := range nbrs {
				if _, ok := dist[int(v)]; !ok {
					dist[int(v)] = dist[u] + 1
					queue = append(queue, int(v))
				}
			}
		}
		w.opt.KHops = k
		got := w.seeds(after, batch)
		if len(got) != len(dist) {
			t.Errorf("k=%d: %d seeds, the walk over the rebuilt graph reaches %d", k, len(got), len(dist))
		}
		for _, v := range got {
			if _, ok := dist[v]; !ok {
				t.Errorf("k=%d: seed %d is outside the %d-hop ball", k, v, k)
			}
		}
	}
}

// TestIncrementalFallbackAdversarial deletes every internal edge of the
// largest community in small batches: the drift must cross DriftQ, and an
// update must report NeedFull. Without AutoResolve the world only reports
// it, and the drift stays in Stats until a Resolve resets it.
func TestIncrementalFallbackAdversarial(t *testing.T) {
	g, _, err := gen.Caveman(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t, g, Options{P: 2, Core: core.Options{DHigh: 16}, DriftQ: 0.02})
	m, err := w.Membership()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	big := 0
	for _, c := range m {
		if counts[c]++; counts[c] > counts[big] {
			big = c
		}
	}
	var doomed []Op
	for _, e := range g.Edges() {
		if e.U != e.V && m[e.U] == big && m[e.V] == big {
			doomed = append(doomed, Op{U: e.U, V: e.V, Del: true})
		}
	}
	if len(doomed) < 4 {
		t.Fatalf("degenerate fixture: largest community (%d members) has %d internal edges", counts[big], len(doomed))
	}
	triggered := false
	for len(doomed) > 0 {
		batch := doomed[:min(6, len(doomed))]
		doomed = doomed[len(batch):]
		out, err := w.Update(batch)
		if err != nil {
			t.Fatal(err)
		}
		if out.Full {
			t.Fatal("the fallback ran without AutoResolve")
		}
		triggered = triggered || out.NeedFull
	}
	if !triggered {
		t.Errorf("adversarial deletion stream never reported NeedFull (final drift should exceed DriftQ=0.02)")
	}
	if st := w.Stats(); st.DriftQ <= 0.02 && st.DriftTouch <= 0.35 {
		t.Errorf("published drift %g, %g is under both thresholds", st.DriftQ, st.DriftTouch)
	}
	if _, err := w.Resolve(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.DriftQ != 0 || st.DriftTouch != 0 {
		t.Errorf("drift %g, %g after Resolve, want 0", st.DriftQ, st.DriftTouch)
	}
}

// TestGoldenProtocol replays testdata/script.txt through the line protocol
// for every world size and both partitionings, and pins the full response
// stream. Regenerate with -update-golden.
func TestGoldenProtocol(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("testdata", "script.txt"))
	if err != nil {
		t.Fatalf("read script: %v", err)
	}
	for _, p := range []int{1, 2, 4} {
		for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
			name := fmt.Sprintf("p%d_%s", p, kind)
			t.Run(name, func(t *testing.T) {
				g := fixtureGraph(t)
				// The fixture graph is tiny, so any batch touches a big
				// fraction of it; lift the touch threshold so the goldens
				// exercise the incremental path, with the quality-drift
				// threshold left to trigger the full-solve fallback.
				w := newWorld(t, g, Options{
					P:            p,
					AutoResolve:  true,
					Core:         core.Options{Partitioning: kind},
					DriftQ:       0.02,
					DriftTouched: 0.95,
				})
				var out strings.Builder
				if err := w.Serve(strings.NewReader(string(script)), &out); err != nil {
					t.Fatalf("serve: %v", err)
				}
				path := filepath.Join("testdata", "golden_"+name+".txt")
				if *updateGolden {
					if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
						t.Fatalf("write golden: %v", err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("read golden (run with -update-golden to create): %v", err)
				}
				if out.String() != string(want) {
					t.Errorf("protocol stream diverged from %s:\ngot:\n%swant:\n%s", path, out.String(), want)
				}
			})
		}
	}
}

// TestProtocolErrors pins the error surface of the line protocol.
func TestProtocolErrors(t *testing.T) {
	g := fixtureGraph(t)
	w := newWorld(t, g, Options{P: 2})
	before := w.HandleLine("stats")
	for _, tc := range []struct{ line, wantPrefix string }{
		{"", ""},
		{"# comment", ""},
		{"frobnicate 3", `error: unknown command "frobnicate"`},
		{"community x", `error: community: bad vertex "x"`},
		{"community 99", "error: dserver: vertex 99 out of range"},
		{"neighborhood -1", "error: dserver: vertex -1 out of range"},
		{"update", "error: update: empty op list"},
		{"update 0,1,2", `error: update: op "0,1,2"`},
		{"update +0,1", `error: update: op "+0,1"`},
		{"update -0,1,2", `error: update: op "-0,1,2"`},
		{"update +0,1,zap", `error: update: op "+0,1,zap": bad weight`},
		{"update -0,29", "error: dserver: op 0: delete of absent edge (0,29)"},
		// The quantise gate: what the fixed point cannot carry is refused
		// before any rank sees it, with the world unchanged (checked below).
		{"update +0,7,NaN", "error: dserver: core: op 0: weight NaN: weight not representable in fixed point"},
		{"update +0,7,Inf", "error: dserver: core: op 0: weight +Inf: weight not representable in fixed point"},
		{"update +0,7,-1", "error: dserver: core: op 0: weight -1: weight not representable in fixed point"},
		{"update +0,7,1e-9", "error: dserver: core: op 0: weight 1e-09: weight not representable in fixed point: 1e-09 rounds to 0"},
		{"update +0,7,0", "error: dserver: core: op 0: weight 0: want > 0"},
		{"update +0,7,4398046511104", "error: dserver: core: op 0: weight 4.398046511104e+12: weight not representable in fixed point: 2m past"},
	} {
		got := w.HandleLine(tc.line)
		if tc.wantPrefix == "" {
			if got != "" {
				t.Errorf("HandleLine(%q) = %q, want empty", tc.line, got)
			}
			continue
		}
		if !strings.HasPrefix(got, tc.wantPrefix) {
			t.Errorf("HandleLine(%q) = %q, want prefix %q", tc.line, got, tc.wantPrefix)
		}
	}
	if got, want := w.HandleLine("stats"), before; got != want {
		t.Errorf("refused lines changed the world:\n got %s\nwant %s", got, want)
	}
}

// TestServeUnterminatedLine: a request is a line that ends in '\n'. A last
// line cut off by EOF, as from a client that meant "+0,7,12" and lost its
// connection, is answered with an error and commits nothing; the lines
// before it run.
func TestServeUnterminatedLine(t *testing.T) {
	w := newWorld(t, fixtureGraph(t), Options{P: 2})
	before := w.HandleLine("stats")
	var out strings.Builder
	if err := w.Serve(strings.NewReader("community 0\nupdate +0,7,1"), &out); err != nil {
		t.Fatalf("serve: %v", err)
	}
	want := "community 0 0\nerror: dserver: request not terminated by a newline: not executed\n"
	if out.String() != want {
		t.Errorf("replies:\n%s\nwant:\n%s", out.String(), want)
	}
	if after := w.HandleLine("stats"); after != before {
		t.Errorf("the cut-off update changed the world:\n got %s\nwant %s", after, before)
	}
	// Trailing blanks after the last newline are not a request.
	out.Reset()
	if err := w.Serve(strings.NewReader("update +0,7,1\n  "), &out); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := out.String(); !strings.HasPrefix(got, "update ok ops=1 ") || strings.Count(got, "\n") != 1 {
		t.Errorf("terminated update replied %q", got)
	}
}

// TestWorldSoak drives concurrent tenants against one resident world —
// mixed queries and updates — under the race detector, with the comm
// conformance suite's watchdog and goroutine-census idioms. Each tenant
// churns a private pool of extra edges (insert then delete), so tenant
// batches never invalidate each other's ledger view.
func TestWorldSoak(t *testing.T) {
	const (
		tenants = 5
		rounds  = 25
	)
	baseline := runtime.NumGoroutine()
	g := fixtureGraph(t)
	w, err := New(g, Options{P: 4, AutoResolve: true})
	if err != nil {
		t.Fatalf("dserver.New: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		var wg sync.WaitGroup
		errs := make([]error, tenants)
		for tn := 0; tn < tenants; tn++ {
			wg.Add(1)
			go func(tn int) {
				defer wg.Done()
				errs[tn] = soakTenant(w, g.NumVertices(), tn)
			}(tn)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("soak: %v", err)
		}
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("watchdog: soak still running after 2m\n%s", buf[:n])
	}

	s := w.Stats()
	if s.Batches < tenants*rounds {
		t.Errorf("only %d update batches recorded, want >= %d", s.Batches, tenants*rounds)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutines(t, baseline)
}

// soakTenant runs one tenant's mixed query/update loop. The tenant's extra
// edges connect vertex pairs reserved to it (disjoint across tenants and
// absent from the ring-of-cliques base graph), inserted and deleted in
// strict alternation so the shared ledger always agrees with the tenant's
// view no matter how the world interleaves tenants.
func soakTenant(w *World, n, tn int) error {
	rng := rand.New(rand.NewSource(int64(1000 + tn)))
	// Clique c spans vertices [6c, 6c+6); the ring links only touch offset
	// 0, so cross-clique pairs between interior vertices (offsets 2..4)
	// never exist in the base graph. Tenant tn churns pairs between
	// cliques tn and (tn+2) mod 5 — the five unordered clique pairs are
	// distinct, so no two tenants ever touch the same edge.
	pairFor := func(i int) (int, int) {
		u := tn*6 + 2 + i%3
		v := ((tn+2)%5)*6 + 2 + (i/3)%3
		return u, v
	}
	held := make(map[int]bool)
	const rounds = 25
	for r := 0; r < rounds; r++ {
		i := rng.Intn(9)
		u, v := pairFor(i)
		var ops []Op
		if held[i] {
			ops = []Op{{U: u, V: v, Del: true}}
		} else {
			ops = []Op{{U: u, V: v, W: 0.5 + float64(tn)}}
		}
		if _, err := w.Update(ops); err != nil {
			return fmt.Errorf("tenant %d round %d update: %w", tn, r, err)
		}
		held[i] = !held[i]

		// Interleave queries.
		qv := rng.Intn(n)
		if _, err := w.CommunityOf(qv); err != nil {
			return fmt.Errorf("tenant %d community: %w", tn, err)
		}
		if _, err := w.Neighborhood(qv); err != nil {
			return fmt.Errorf("tenant %d neighborhood: %w", tn, err)
		}
		if _, err := w.Modularity(); err != nil {
			return fmt.Errorf("tenant %d modularity: %w", tn, err)
		}
	}
	// Drain held edges so the soak ends in a clean state.
	for i := range held {
		if held[i] {
			u, v := pairFor(i)
			if _, err := w.Update([]Op{{U: u, V: v, Del: true}}); err != nil {
				return fmt.Errorf("tenant %d drain: %w", tn, err)
			}
		}
	}
	return nil
}

// TestWorldReadersBypassWorldLock pins the snapshot design: every read
// (CommunityOf, Neighborhood, Modularity, Membership, Stats) must answer
// while the world's mutation mutex is held — reads load the published
// snapshot and never serialize behind updates. Holding w.mu here simulates
// a stalled mutation, such as a full solve.
func TestWorldReadersBypassWorldLock(t *testing.T) {
	g := fixtureGraph(t)
	w := newWorld(t, g, Options{P: 4})
	w.mu.Lock()
	done := make(chan error, 1)
	go func() {
		if _, err := w.CommunityOf(3); err != nil {
			done <- err
			return
		}
		if _, err := w.Neighborhood(3); err != nil {
			done <- err
			return
		}
		if _, err := w.Modularity(); err != nil {
			done <- err
			return
		}
		w.Stats()
		_, err := w.Membership()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("query under held world lock: %v", err)
		}
	case <-time.After(30 * time.Second):
		w.mu.Unlock()
		t.Fatal("reads serialized behind the world lock")
	}
	w.mu.Unlock()
}

// TestWorldFailedUpdate kills rank 1 inside ApplyUpdates and checks the
// world's failure mode: Update reports the kill (or its echo on a peer), the
// ledger keeps its last committed state, every later verb answers an error
// in bounded time, and Close leaves no goroutine behind.
func TestWorldFailedUpdate(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := fixtureGraph(t)
	w, err := New(g, Options{P: 4})
	if err != nil {
		t.Fatalf("dserver.New: %v", err)
	}
	before := w.Stats()
	runWorld = func(p int, fn func(comm.Comm) error) error {
		return comm.RunWorldChaos(p, comm.ChaosOptions{Seed: 1, KillRank: 1, KillAfter: 3}, fn)
	}
	defer func() { runWorld = comm.RunWorld }()

	done := make(chan []string, 1)
	go func() {
		_, err := w.Update([]Op{{U: 2, V: 14, W: 1.5}})
		if !errors.Is(err, comm.ErrChaosKill) && !errors.Is(err, comm.ErrPeerDown) {
			t.Errorf("update on a killed world: %v, want ErrChaosKill or ErrPeerDown", err)
		}
		var replies []string
		for _, line := range []string{"community 3", "neighborhood 3", "modularity", "update +2,14,1", "resolve"} {
			replies = append(replies, w.HandleLine(line))
		}
		done <- replies
	}()
	select {
	case replies := <-done:
		for _, rep := range replies {
			if !strings.HasPrefix(rep, "error: ") {
				t.Errorf("failed world replied %q, want an error", rep)
			}
		}
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("watchdog: failed world still answering after 2m\n%s", buf[:n])
	}
	if after := w.Stats(); after.Edges != before.Edges || after.Batches != before.Batches {
		t.Errorf("failed update mutated the ledger: %+v -> %+v", before, after)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutines(t, baseline)
}

// FuzzHandleLine feeds arbitrary request lines to a P = 2 world: the request
// loop must not panic, must answer one line that is empty, echoes the verb or
// is an error, and a refused line must leave the world's counters unchanged.
func FuzzHandleLine(f *testing.F) {
	for _, line := range []string{
		"community 3", "neighborhood 0", "modularity", "stats", "resolve",
		"update +0,29,1.5", "update -0,1", "update +0,29,1;-0,29", "update +0,7,NaN",
		"community -1", "update +3,3,1", "frobnicate 3", "# comment", "",
	} {
		f.Add(line)
	}
	g, _, err := gen.Caveman(5, 6)
	if err != nil {
		f.Fatalf("caveman: %v", err)
	}
	w, err := New(g, Options{P: 2, AutoResolve: true})
	if err != nil {
		f.Fatalf("dserver.New: %v", err)
	}
	f.Cleanup(func() { w.Close() })
	f.Fuzz(func(t *testing.T, line string) {
		before := w.HandleLine("stats")
		rep := w.HandleLine(line)
		if strings.Contains(rep, "\n") {
			t.Fatalf("HandleLine(%q) = %q: more than one line", line, rep)
		}
		verb, _, _ := strings.Cut(strings.TrimSpace(line), " ")
		refused := strings.HasPrefix(rep, "error: ")
		if rep != "" && !refused && !strings.HasPrefix(rep, verb+" ") && rep != verb {
			t.Fatalf("HandleLine(%q) = %q: neither the verb nor an error", line, rep)
		}
		if after := w.HandleLine("stats"); refused && after != before {
			t.Fatalf("refused line %q changed the world:\n got %s\nwant %s", line, after, before)
		}
	})
}

// TestWorldConcurrentReaderSoak hammers one world with many pure-reader
// goroutines racing a continuous updater — the race-detector soak for the
// direct-read query paths (run under -race by scripts/check.sh). Readers
// check answer sanity so a torn read surfaces even without the detector.
func TestWorldConcurrentReaderSoak(t *testing.T) {
	const (
		readers   = 8
		readerOps = 300
		writerOps = 40
	)
	baseline := runtime.NumGoroutine()
	g := fixtureGraph(t)
	n := g.NumVertices()
	w, err := New(g, Options{P: 4, AutoResolve: true})
	if err != nil {
		t.Fatalf("dserver.New: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		var wg sync.WaitGroup
		errs := make([]error, readers+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Interior vertices of cliques 0 and 2 (offsets 2..4) have no
			// base-graph edge between them; alternate insert/delete.
			for i := 0; i < writerOps; i++ {
				op := Op{U: 2, V: 14, W: 1.5}
				if i%2 == 1 {
					op = Op{U: 2, V: 14, Del: true}
				}
				if _, err := w.Update([]Op{op}); err != nil {
					errs[0] = fmt.Errorf("writer op %d: %w", i, err)
					return
				}
				if i%10 == 0 {
					if _, err := w.Resolve(); err != nil {
						errs[0] = fmt.Errorf("writer resolve %d: %w", i, err)
						return
					}
				}
			}
		}()
		for rd := 0; rd < readers; rd++ {
			wg.Add(1)
			go func(rd int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(900 + rd)))
				fail := func(err error) { errs[1+rd] = fmt.Errorf("reader %d: %w", rd, err) }
				for i := 0; i < readerOps; i++ {
					v := rng.Intn(n)
					c, err := w.CommunityOf(v)
					if err != nil {
						fail(err)
						return
					}
					if c < 0 || c >= n {
						fail(fmt.Errorf("community %d of vertex %d out of range", c, v))
						return
					}
					if q, err := w.Modularity(); err != nil {
						fail(err)
						return
					} else if q < -1 || q > 1 {
						fail(fmt.Errorf("modularity %g out of range", q))
						return
					}
					switch i % 3 {
					case 0:
						if _, err := w.Neighborhood(v); err != nil {
							fail(err)
							return
						}
					case 1:
						m, err := w.Membership()
						if err != nil {
							fail(err)
							return
						}
						if len(m) != n {
							fail(fmt.Errorf("membership has %d labels, want %d", len(m), n))
							return
						}
					default:
						w.Stats()
					}
				}
			}(rd)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("soak: %v", err)
		}
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		nb := runtime.Stack(buf, true)
		t.Fatalf("watchdog: reader soak still running after 2m\n%s", buf[:nb])
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the live goroutine count returns to (near)
// baseline, failing with a dump if it does not — the leak detector from
// the comm conformance suite.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFractionalUpdateBatch applies one update batch whose weights are off
// the integer path — a dyadic 6.75, and a 9.3 and 1.1 that
// partition.Quantise rounds — on the incremental path, where it moves
// vertices, so the flush and push frames of ApplyUpdates carry scale 0 and
// the weights' full 2⁻²⁰ units. The replies are the ones the world gave
// before weights travelled scaled: the scale is exact, so the batch's Q,
// moves and labels cannot move.
func TestFractionalUpdateBatch(t *testing.T) {
	const batch = "update +2,8,9.3;+3,8,6.75;+16,22,1.1"
	for _, tc := range []struct {
		p      int
		kind   partition.Kind
		update string
		q      string
		labels string
	}{
		{2, partition.Delegate,
			"update ok ops=3 mode=incremental moved=3 touched=25 needfull=true q=0x1.4f40cc42106ddp-01",
			"modularity 0x1.4f40cc42106ddp-01",
			"community 2 0; community 3 0; community 8 0; community 16 13; community 22 20"},
		{2, partition.OneD,
			"update ok ops=3 mode=incremental moved=3 touched=25 needfull=true q=0x1.4f40cc42106ddp-01",
			"modularity 0x1.4f40cc42106ddp-01",
			"community 2 0; community 3 0; community 8 0; community 16 13; community 22 20"},
		{4, partition.Delegate,
			"update ok ops=3 mode=incremental moved=1 touched=25 needfull=true q=0x1.4f40cc42106dep-01",
			"modularity 0x1.4f40cc42106dep-01",
			"community 2 0; community 3 0; community 8 0; community 16 13; community 22 20"},
		{4, partition.OneD,
			"update ok ops=3 mode=incremental moved=1 touched=25 needfull=true q=0x1.4f40cc42106dep-01",
			"modularity 0x1.4f40cc42106dep-01",
			"community 2 0; community 3 0; community 8 0; community 16 13; community 22 20"},
	} {
		name := fmt.Sprintf("p%d_%s", tc.p, tc.kind)
		w := newWorld(t, fixtureGraph(t), Options{
			P:            tc.p,
			Core:         core.Options{Partitioning: tc.kind},
			DriftQ:       0.02,
			DriftTouched: 0.95,
		})
		if got := w.HandleLine(batch); got != tc.update {
			t.Errorf("%s: %q replied %q, recorded %q", name, batch, got, tc.update)
		}
		if !strings.Contains(tc.update, "mode=incremental") {
			t.Errorf("%s: the batch did not run incrementally: %q", name, tc.update)
		}
		if got := w.HandleLine("modularity"); got != tc.q {
			t.Errorf("%s: modularity replied %q, recorded %q", name, got, tc.q)
		}
		var labels []string
		for _, v := range []int{2, 3, 8, 16, 22} {
			labels = append(labels, w.HandleLine(fmt.Sprintf("community %d", v)))
		}
		if got := strings.Join(labels, "; "); got != tc.labels {
			t.Errorf("%s: labels %q, recorded %q", name, got, tc.labels)
		}
	}
}
