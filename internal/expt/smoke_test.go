package expt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick.golden from this run")

// TestSmokeAll runs every lane on one quick-profile Suite and compares the
// tables byte for byte with testdata/quick.golden: the tables as
// cmd/experiments -quick prints them, each lane closed by a "[name]" line
// where the command prints its timing, and fig9's sequential (ms) column
// blanked because it is the one wall-clock cell. Every other cell is a
// function of (graph, options), so a change that moves one is a change of
// results. Such a change re-records the golden and shows the diff:
//
//	go test ./internal/expt -run TestSmokeAll -update-golden
func TestSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	var got bytes.Buffer
	s := NewSuite(Quick())
	for _, l := range Lanes() {
		tables, err := l.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		for _, tbl := range tables {
			if l.Name == "fig9" {
				for _, row := range tbl.Rows {
					row[1] = ""
				}
			}
			tbl.Fprint(&got)
		}
		got.WriteString("[" + l.Name + "]\n\n")
	}
	path := filepath.Join("testdata", "quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("quick tables differ from %s at line %d:\n got: %q\nwant: %q\n(a results-changing change re-records with -update-golden)", path, i+1, gl, wl)
		}
	}
}
