package harness

import (
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},   // a batch workload's reps: a median, no tail
		{39, 0, false},   // p75 of 39 leaves 9 beyond
		{40, 75, true},   // p75 of 40 leaves 10
		{56, 80, true},   // serve-mixed updates in 20 s: p80 leaves 11, p90 only 5
		{100, 90, true},  // p90 of 100 leaves exactly 10
		{4136, 99, true}, // serve-mixed reads: p99 leaves 41, p99.9 only 4
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := SupportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("SupportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && SamplesBeyond(c.n, got) < minBeyond {
			t.Errorf("SupportedTail(%d) = %v leaves %d beyond", c.n, got, SamplesBeyond(c.n, got))
		}
	}
}

func TestPercentileAndBeyondAgree(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, p := range []float64{50, 75, 80, 90, 99} {
		v := Percentile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != SamplesBeyond(len(xs), p) {
			t.Errorf("p%v = %v has %d samples beyond, SamplesBeyond says %d", p, v, beyond, SamplesBeyond(len(xs), p))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := Quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("Quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := Median(xs); m != 5.5 {
		t.Errorf("Median = %v; want 5.5", m)
	}
	if s := Spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("Spread = %v; want 1", s)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = Quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("Quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}
