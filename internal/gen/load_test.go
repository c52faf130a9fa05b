package gen

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// setProcs sets GOMAXPROCS to n for the rest of t and restores the previous
// value when t ends.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestLoad drives the commands' shared loader over every file format it
// picks by extension and over the -graph/-gen misuse cases. The .metis row
// is one a private loader once read as an edge list, and "both" the one it
// silently accepted.
func TestLoad(t *testing.T) {
	rmat, _, err := ParseSpec("rmat:scale=7,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	// The same graph with a different weight on every edge: more than 255
	// distinct values, which no .sbin can hold.
	edges := rmat.Edges()
	for i := range edges {
		edges[i].W = 1 + float64(i)/1024
	}
	wide, err := graph.FromEdges(rmat.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	// The committed .sbin is gengraph's output for this spec at -shards 4.
	lfr, _, err := ParseSpec("lfr:n=150,mu=0.3,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	parent := filepath.Join("..", "graph", "testdata", "lfr150_parent.sbin")
	dir := t.TempDir()
	file := func(name string, g *graph.Graph, write func(io.Writer, *graph.Graph) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f, g); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sharded := func(w io.Writer, g *graph.Graph) error { return graph.WriteBinaryShardedV2(w, g, 5) }
	txt := file("g.txt", rmat, graph.WriteEdgeList)
	var lfrEnc bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&lfrEnc, lfr, 4); err != nil {
		t.Fatal(err)
	}
	if committed, err := os.ReadFile(parent); err != nil || !bytes.Equal(committed, lfrEnc.Bytes()) {
		t.Fatalf("%s is not the writer's encoding of the generator's graph (read error %v)", parent, err)
	}
	// A refused write leaves an empty file, which Load then rejects.
	refused := filepath.Join(dir, "wide.sbin")
	f, err := os.Create(refused)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded(f, wide); err == nil {
		t.Fatal("a 256-weight graph was written")
	}
	if st, err := f.Stat(); err != nil || st.Size() != 0 {
		t.Fatalf("a refused write left bytes behind (stat error %v)", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, spec string
		want             *graph.Graph
		wantErr          bool
	}{
		{"txt", txt, "", rmat, false},
		{"bin", parent, "", lfr, false},
		{"sbin-256-weights", refused, "", nil, true},
		{"sbin-v2", file("v2.sbin", rmat, sharded), "", rmat, false},
		{"metis", file("g.metis", rmat, graph.WriteMETIS), "", rmat, false},
		{"gen", "", "rmat:scale=7,seed=3", rmat, false},
		{"both", txt, "rmat:scale=7,seed=3", nil, true},
		{"neither", "", "", nil, true},
		{"missing", filepath.Join(dir, "absent.bin"), "", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want
			for _, procs := range []int{1, 3} {
				setProcs(t, procs)
				got, truth, err := Load(tc.path, tc.spec)
				if tc.wantErr {
					if err == nil {
						t.Fatalf("procs=%d: no error", procs)
					}
					continue
				}
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if truth != nil {
					t.Errorf("procs=%d: planted truth for a graph without one", procs)
				}
				if got.NumVertices() != want.NumVertices() || got.NumArcs() != want.NumArcs() ||
					got.TotalWeight2() != want.TotalWeight2() {
					t.Fatalf("procs=%d: %d vertices / %d arcs / 2m=%v, wrote %d / %d / %v", procs,
						got.NumVertices(), got.NumArcs(), got.TotalWeight2(),
						want.NumVertices(), want.NumArcs(), want.TotalWeight2())
				}
				for u := 0; u < want.NumVertices(); u++ {
					gt, gw := got.Neighbors(u)
					wt, ww := want.Neighbors(u)
					if len(gt) != len(wt) {
						t.Fatalf("procs=%d: vertex %d has %d arcs, wrote %d", procs, u, len(gt), len(wt))
					}
					for i := range wt {
						if gt[i] != wt[i] || gw[i] != ww[i] {
							t.Fatalf("procs=%d: vertex %d arc %d differs from the written graph", procs, u, i)
						}
					}
				}
			}
		})
	}
}
