package gen

import (
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
	want, _, err := ParseSpec("rmat:scale=7,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := func(name string, write func(io.Writer, *graph.Graph) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f, want); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sharded := func(write func(io.Writer, *graph.Graph, int) error) func(io.Writer, *graph.Graph) error {
		return func(w io.Writer, g *graph.Graph) error { return write(w, g, 5) }
	}
	txt := file("g.txt", graph.WriteEdgeList)
	for _, tc := range []struct {
		name, path, spec string
		wantErr          bool
	}{
		{"txt", txt, "", false},
		{"bin", file("g.bin", graph.WriteBinary), "", false},
		{"sbin-v1", file("v1.sbin", sharded(graph.WriteBinarySharded)), "", false},
		{"sbin-v2", file("v2.sbin", sharded(graph.WriteBinaryShardedV2)), "", false},
		{"metis", file("g.metis", graph.WriteMETIS), "", false},
		{"gen", "", "rmat:scale=7,seed=3", false},
		{"both", txt, "rmat:scale=7,seed=3", true},
		{"neither", "", "", true},
		{"missing", filepath.Join(dir, "absent.bin"), "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
