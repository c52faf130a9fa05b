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
// (analysis.NoallocFuncs): π is evaluated once per vertex of every build,
// when build tabulates it.
func TestNoallocAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting under -short")
	}
	annotated, err := analysis.NoallocFuncs(".")
	if err != nil {
		t.Fatalf("reading //perf:noalloc annotations: %v", err)
	}

	pi := newScramble(65537) // just past a power of two: walks are common
	x := 0
	drivers := map[string]func(){
		"scramble.of": func() { x = pi.of((x + 12345) % 65537) },
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
