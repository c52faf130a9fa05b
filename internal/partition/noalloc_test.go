package partition

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/analysis"
)

// TestNoallocAnnotations bounds every //perf:noalloc-annotated function of
// this package with a zero-allocation AllocsPerRun ceiling, keyed off the
// same annotation list the noalloc analyzer verifies statically
// (analysis.NoallocFuncs): π is evaluated once per vertex of every build
// and once per id that crosses core.Session's boundary.
func TestNoallocAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting under -short")
	}
	annotated, err := analysis.NoallocFuncs(".")
	if err != nil {
		t.Fatalf("reading //perf:noalloc annotations: %v", err)
	}

	pi := NewScramble(65537) // just past a power of two: walks are common
	x := 0
	drivers := map[string]func(){
		"Scramble.Of":  func() { x = pi.Of((x + 12345) % 65537) },
		"Scramble.Inv": func() { x = pi.Inv((x + 12345) % 65537) },
	}

	var table []string
	for name := range drivers {
		table = append(table, name)
	}
	sort.Strings(table)
	if fmt.Sprint(table) != fmt.Sprint(annotated) {
		t.Fatalf("driver table out of sync with //perf:noalloc annotations:\n  annotated: %v\n  drivers:   %v", annotated, table)
	}

	for _, name := range table {
		if got := testing.AllocsPerRun(100, drivers[name]); got > 0 {
			t.Errorf("%s: %v allocs/op, //perf:noalloc promises 0", name, got)
		}
	}
}
