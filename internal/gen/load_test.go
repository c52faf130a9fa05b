package gen

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// TestLoad drives the commands' shared loader over every file format it
// picks by extension and over the -graph/-gen misuse cases. The .metis row
// is the one cmd/worker's private loader used to read as an edge list, and
// "both" the one it silently accepted.
func TestLoad(t *testing.T) {
	rmat, _, err := ParseSpec("rmat:scale=7,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	// The same graph with a different weight on every edge: more than 255
	// distinct values, which WriteBinaryShardedV2 writes as v1 by itself.
	edges := rmat.Edges()
	for i := range edges {
		edges[i].W = 1 + float64(i)/1024
	}
	weighted, err := graph.FromEdges(rmat.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	// The committed .bin is gengraph's output for this spec at c4f0c52, the
	// last commit that wrote the flat format.
	lfr, _, err := ParseSpec("lfr:n=150,mu=0.3,seed=5")
	if err != nil {
		t.Fatal(err)
	}
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
	v1 := file("v1.sbin", weighted, sharded)
	if head, err := os.ReadFile(v1); err != nil || binary.LittleEndian.Uint32(head) != 0x477250A2 {
		t.Fatalf("v1.sbin does not start with the v1 magic (read error %v)", err)
	}
	for _, tc := range []struct {
		name, path, spec string
		want             *graph.Graph
		wantErr          bool
	}{
		{"txt", txt, "", rmat, false},
		{"bin", filepath.Join("..", "graph", "testdata", "lfr150_parent.bin"), "", lfr, false},
		{"sbin-v1", v1, "", weighted, false},
		{"sbin-v2", file("v2.sbin", rmat, sharded), "", rmat, false},
		{"metis", file("g.metis", rmat, graph.WriteMETIS), "", rmat, false},
		{"gen", "", "rmat:scale=7,seed=3", rmat, false},
		{"both", txt, "rmat:scale=7,seed=3", nil, true},
		{"neither", "", "", nil, true},
		{"missing", filepath.Join(dir, "absent.bin"), "", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want
			for _, workers := range []int{1, 3} {
				got, truth, err := Load(tc.path, tc.spec, workers)
				if tc.wantErr {
					if err == nil {
						t.Fatalf("workers=%d: no error", workers)
					}
					continue
				}
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if truth != nil {
					t.Errorf("workers=%d: planted truth for a graph without one", workers)
				}
				if got.NumVertices() != want.NumVertices() || got.NumArcs() != want.NumArcs() ||
					got.TotalWeight2() != want.TotalWeight2() {
					t.Fatalf("workers=%d: %d vertices / %d arcs / 2m=%v, wrote %d / %d / %v", workers,
						got.NumVertices(), got.NumArcs(), got.TotalWeight2(),
						want.NumVertices(), want.NumArcs(), want.TotalWeight2())
				}
				for u := 0; u < want.NumVertices(); u++ {
					gt, gw := got.Neighbors(u)
					wt, ww := want.Neighbors(u)
					if len(gt) != len(wt) {
						t.Fatalf("workers=%d: vertex %d has %d arcs, wrote %d", workers, u, len(gt), len(wt))
					}
					for i := range wt {
						if gt[i] != wt[i] || gw[i] != ww[i] {
							t.Fatalf("workers=%d: vertex %d arc %d differs from the written graph", workers, u, i)
						}
					}
				}
			}
		})
	}
}
