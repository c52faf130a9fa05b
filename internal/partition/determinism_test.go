package partition

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// buildWorkerCounts is the contract grid for Options.Workers: every count
// must produce a bit-identical Layout (same shape as core's
// TestWorkerDeterminism).
var buildWorkerCounts = []int{1, 2, 3, 8}

func f64sIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func arcsIdentical(a, b []Arc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].To != b[i].To || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return false
		}
	}
	return true
}

// layoutsIdentical reports the first difference between two layouts, down
// to the bit pattern of every float and the exact order of every slice
// ("" means identical). nil and empty slices are treated as different:
// the parallel path must reproduce even that distinction.
func layoutsIdentical(a, b *Layout) string {
	if a.P != b.P || a.Kind != b.Kind || a.DHigh != b.DHigh {
		return fmt.Sprintf("header: {%d %v %d} vs {%d %v %d}", a.P, a.Kind, a.DHigh, b.P, b.Kind, b.DHigh)
	}
	if (a.Hubs == nil) != (b.Hubs == nil) || !intsEqual(a.Hubs, b.Hubs) {
		return fmt.Sprintf("Hubs: %v vs %v", a.Hubs, b.Hubs)
	}
	if len(a.Parts) != len(b.Parts) {
		return fmt.Sprintf("Parts: %d vs %d", len(a.Parts), len(b.Parts))
	}
	for r := range a.Parts {
		sa, sb := a.Parts[r], b.Parts[r]
		if sa.Rank != sb.Rank || sa.P != sb.P || sa.GlobalVertices != sb.GlobalVertices {
			return fmt.Sprintf("rank %d: subgraph header differs", r)
		}
		if (sa.Owned == nil) != (sb.Owned == nil) || !intsEqual(sa.Owned, sb.Owned) {
			return fmt.Sprintf("rank %d: Owned differs", r)
		}
		if !f64sIdentical(sa.OwnedWDeg, sb.OwnedWDeg) {
			return fmt.Sprintf("rank %d: OwnedWDeg differs", r)
		}
		if len(sa.AdjOwned) != len(sb.AdjOwned) {
			return fmt.Sprintf("rank %d: AdjOwned length %d vs %d", r, len(sa.AdjOwned), len(sb.AdjOwned))
		}
		for i := range sa.AdjOwned {
			if !arcsIdentical(sa.AdjOwned[i], sb.AdjOwned[i]) {
				return fmt.Sprintf("rank %d: AdjOwned[%d] (vertex %d) differs", r, i, sa.Owned[i])
			}
		}
		if !intsEqual(sa.Hubs, sb.Hubs) || !f64sIdentical(sa.HubWDeg, sb.HubWDeg) {
			return fmt.Sprintf("rank %d: hub directory differs", r)
		}
		if len(sa.AdjHub) != len(sb.AdjHub) {
			return fmt.Sprintf("rank %d: AdjHub length %d vs %d", r, len(sa.AdjHub), len(sb.AdjHub))
		}
		for i := range sa.AdjHub {
			if !arcsIdentical(sa.AdjHub[i], sb.AdjHub[i]) {
				return fmt.Sprintf("rank %d: AdjHub[%d] (hub %d) differs", r, i, sa.Hubs[i])
			}
		}
		if !intsEqual(sa.Ghosts, sb.Ghosts) {
			return fmt.Sprintf("rank %d: Ghosts differ", r)
		}
		if len(sa.Subscribers) != len(sb.Subscribers) {
			return fmt.Sprintf("rank %d: Subscribers size %d vs %d", r, len(sa.Subscribers), len(sb.Subscribers))
		}
		for v, subs := range sa.Subscribers {
			if !intsEqual(subs, sb.Subscribers[v]) {
				return fmt.Sprintf("rank %d: Subscribers[%d] differ", r, v)
			}
		}
		if math.Float64bits(sa.TotalWeight2) != math.Float64bits(sb.TotalWeight2) {
			return fmt.Sprintf("rank %d: TotalWeight2 differs", r)
		}
	}
	return ""
}

// graphsBitIdentical compares two graphs through the public API down to
// float bit patterns.
func graphsBitIdentical(a, b *graph.Graph) string {
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() || a.NumEdges() != b.NumEdges() {
		return fmt.Sprintf("shape: %d/%d/%d vs %d/%d/%d vertices/arcs/edges",
			a.NumVertices(), a.NumArcs(), a.NumEdges(), b.NumVertices(), b.NumArcs(), b.NumEdges())
	}
	if math.Float64bits(a.TotalWeight2()) != math.Float64bits(b.TotalWeight2()) {
		return fmt.Sprintf("TotalWeight2: %v vs %v", a.TotalWeight2(), b.TotalWeight2())
	}
	for u := 0; u < a.NumVertices(); u++ {
		if math.Float64bits(a.WeightedDegree(u)) != math.Float64bits(b.WeightedDegree(u)) {
			return fmt.Sprintf("vertex %d: WeightedDegree differs", u)
		}
		ta, wa := a.Neighbors(u)
		tb, wb := b.Neighbors(u)
		if len(ta) != len(tb) {
			return fmt.Sprintf("vertex %d: degree %d vs %d", u, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] || math.Float64bits(wa[i]) != math.Float64bits(wb[i]) {
				return fmt.Sprintf("vertex %d arc %d: (%d,%v) vs (%d,%v)", u, i, ta[i], wa[i], tb[i], wb[i])
			}
		}
	}
	return ""
}

// TestBuildWorkerDeterminism is the end-to-end determinism property for the
// ingest-and-partition pipeline: parallel edge-list parsing, the parallel
// counting-sort CSR build behind it, and partition.Build must all be
// bit-identical to their one-worker runs at every worker count, for both
// partitioning kinds, on the golden fixture graph and a scale-12 R-MAT.
func TestBuildWorkerDeterminism(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden", "graph.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rmatG, err := gen.RMAT(gen.Graph500RMAT(12, 7))
	if err != nil {
		t.Fatal(err)
	}
	var rmatText bytes.Buffer
	if err := graph.WriteEdgeList(&rmatText, rmatG); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		text []byte
	}{
		{"golden", golden},
		{"rmat12", rmatText.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialG, err := graph.ReadEdgeList(bytes.NewReader(tc.text), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []Kind{OneD, Delegate} {
				base, err := Build(serialG, Options{P: 4, Kind: kind, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range buildWorkerCounts {
					pg, err := graph.ReadEdgeList(bytes.NewReader(tc.text), w)
					if err != nil {
						t.Fatalf("workers=%d: parallel parse: %v", w, err)
					}
					if diff := graphsBitIdentical(serialG, pg); diff != "" {
						t.Fatalf("workers=%d: parallel parse diverged: %s", w, diff)
					}
					l, err := Build(pg, Options{P: 4, Kind: kind, Workers: w})
					if err != nil {
						t.Fatalf("%v workers=%d: %v", kind, w, err)
					}
					if diff := layoutsIdentical(base, l); diff != "" {
						t.Fatalf("%v workers=%d: layout diverged from workers=1: %s", kind, w, diff)
					}
				}
			}
		})
	}
}

// TestBuildDefaultWorkersMatchesInline pins Workers=0 (the host-sized pool a
// production caller actually gets) to Workers=1, where every chunk runs
// inline on the caller.
func TestBuildDefaultWorkersMatchesInline(t *testing.T) {
	g, err := gen.BarabasiAlbert(1500, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{OneD, Delegate} {
		base, err := Build(g, Options{P: 5, Kind: kind, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		auto, err := Build(g, Options{P: 5, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if diff := layoutsIdentical(base, auto); diff != "" {
			t.Fatalf("%v: auto-workers layout diverged: %s", kind, diff)
		}
	}
}
