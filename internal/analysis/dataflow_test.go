package analysis

import (
	"path/filepath"
	"testing"
)

// TestDefUseWalk exercises the shared def-use layer (dataflow.go) through
// the two analyzers built on it, over the synthetic dfcases package. One
// file per case keeps the table readable: each row says which analyzer the
// case targets and how many findings it must produce in that file — the
// laundering rows (sort between collect and encode, chunk-derived indexes)
// must be exactly zero, their unlaundered twins exactly the sink count.
func TestDefUseWalk(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "dfcases"))
	if err != nil {
		t.Fatalf("loading dfcases: %v", err)
	}
	findings := Run([]*Package{pkg}, []*Analyzer{AnalyzerMapOrder, AnalyzerParForShare})
	got := make(map[string]map[string]int) // file base -> analyzer -> count
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		if got[base] == nil {
			got[base] = make(map[string]int)
		}
		got[base][f.Analyzer]++
	}
	cases := []struct {
		file     string
		analyzer string
		want     int
	}{
		{"map_sort_encode.go", "maporder", 0},  // sort launders the collected keys
		{"map_encode.go", "maporder", 2},       // both Put calls fire
		{"chunk_indexed.go", "parforshare", 0}, // chunk-derived indexes own their slots
		{"shared_write.go", "parforshare", 1},  // captured-scalar accumulation fires
	}
	for _, tc := range cases {
		if n := got[tc.file][tc.analyzer]; n != tc.want {
			t.Errorf("%s: %s findings = %d, want %d", tc.file, tc.analyzer, n, tc.want)
		}
	}
	// Nothing else may fire anywhere in the package: the clean files carry
	// deliberate near-misses of the flagged shapes.
	wantTotal := 0
	for _, tc := range cases {
		wantTotal += tc.want
	}
	if len(findings) != wantTotal {
		t.Errorf("dfcases produced %d findings in total, want %d: %v", len(findings), wantTotal, findings)
	}
}
