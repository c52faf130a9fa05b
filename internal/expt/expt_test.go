package expt

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestDatasetRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) < 10 {
		t.Fatalf("registry has %d datasets, want the paper's 10+", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		if names[d.Name] {
			t.Errorf("duplicate dataset %q", d.Name)
		}
		names[d.Name] = true
		if d.Generate == nil {
			t.Errorf("dataset %q has no generator", d.Name)
		}
	}
	for _, want := range []string{"Amazon", "DBLP", "ND-Web", "YouTube", "UK-2007", "LFR"} {
		if !names[want] {
			t.Errorf("paper dataset %q missing from registry", want)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("Amazon")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "Amazon" {
		t.Errorf("Name = %q", d.Name)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

// TestLoadCachesAndIsDeterministic checks the suite's memo: a dataset is
// generated once and a (dataset, options) pair solved once per Suite, and a
// second Suite starts empty.
func TestLoadCachesAndIsDeterministic(t *testing.T) {
	s := NewSuite(Quick())
	g1, truth, err := s.load("Amazon")
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := s.load("Amazon")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("load did not cache")
	}
	if truth == nil {
		t.Error("Amazon stand-in should carry planted truth")
	}
	r1, err := s.solve("Amazon", core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.solve("Amazon", core.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("solve did not cache")
	}
	if g3, _, err := NewSuite(Quick()).load("Amazon"); err != nil || g3 == g1 {
		t.Errorf("a new suite shares the first one's graph (err %v)", err)
	}
	if _, _, err := s.load("nope"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestSmallDatasetsExcludeLarge(t *testing.T) {
	for _, d := range SmallDatasets() {
		if d.Large {
			t.Errorf("SmallDatasets includes large dataset %q", d.Name)
		}
	}
	if len(SmallDatasets()) >= len(Datasets()) {
		t.Error("no large datasets registered")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "bee"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow(1, "x")
	tbl.AddRow(2.5, "longer")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "bee", "2.5000", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLanes checks the lane table, the one registry of experiments: every
// lane has a runner and a name cmd/experiments -only can select.
func TestLanes(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range Lanes() {
		if l.Name == "" || strings.ContainsAny(l.Name, ", ") || seen[l.Name] || l.Run == nil {
			t.Errorf("lane %q: empty, unselectable or repeated name, or no runner", l.Name)
		}
		seen[l.Name] = true
	}
}

func TestProfiles(t *testing.T) {
	q, f := Quick(), Full()
	if q.IncludeLarge {
		t.Error("quick profile should exclude large datasets")
	}
	if !f.IncludeLarge {
		t.Error("full profile should include large datasets")
	}
	if len(q.Procs) == 0 || len(q.PartitionProcs) == 0 || q.DefaultP < 1 {
		t.Errorf("quick profile incomplete: %+v", q)
	}
	if f.PartitionProcs[len(f.PartitionProcs)-1] != 4096 {
		t.Errorf("full profile should keep the paper's 4096-rank partition analysis: %v", f.PartitionProcs)
	}
}

func TestTable1Runs(t *testing.T) {
	tables, err := NewSuite(Quick()).table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != len(SmallDatasets()) {
		t.Errorf("table1 gives %d tables, want one with %d rows", len(tables), len(SmallDatasets()))
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow("x,y", 2)
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",2\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}
