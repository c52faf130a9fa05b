package core

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
)

// goldenSharded encodes the golden fixture graph as a v2 sharded binary
// and opens it for windowed reads.
func goldenSharded(t *testing.T, shards int) *graph.Sharded {
	t.Helper()
	g := goldenGraph(t)
	var buf bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&buf, g, shards); err != nil {
		t.Fatal(err)
	}
	s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGoldenOutOfCore is the end-to-end acceptance test for the
// out-of-core solve: BuildStreaming over the sharded golden fixture, then
// RunLayout, must reproduce the default in-RAM Run bit for bit — same
// hex-float modularity, same label for every vertex — across rank counts
// and both partitionings.
func TestGoldenOutOfCore(t *testing.T) {
	g := goldenGraph(t)
	s := goldenSharded(t, 5)
	for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/p%d", kind, p), func(t *testing.T) {
				opt := Options{P: p, Partitioning: kind}
				want, err := Run(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				// The streaming path never sees the Graph; the file's counts
				// through the shared mapping give the DHigh Run derives.
				layout, err := partition.BuildStreaming(s, opt.PartitionOptions(s.NumVertices(), s.NumArcs()))
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunLayout(layout, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Modularity != want.Modularity {
					t.Errorf("Q = %s, in-RAM %s",
						strconv.FormatFloat(got.Modularity, 'x', -1, 64),
						strconv.FormatFloat(want.Modularity, 'x', -1, 64))
				}
				if len(got.Membership) != len(want.Membership) {
					t.Fatalf("%d labels, in-RAM %d", len(got.Membership), len(want.Membership))
				}
				for u := range got.Membership {
					if got.Membership[u] != want.Membership[u] {
						t.Fatalf("vertex %d in community %d, in-RAM %d",
							u, got.Membership[u], want.Membership[u])
					}
				}
			})
		}
	}
}

// TestRunRankLayoutTCP drives the per-process out-of-core entry point:
// every TCP rank builds the streaming layout itself, keeps its part, and
// solves via RunRankLayout. The assembled membership must match the
// in-process RunLayout result exactly.
func TestRunRankLayoutTCP(t *testing.T) {
	s := goldenSharded(t, 3)
	const p = 4
	opt := Options{P: p}
	popt := opt.PartitionOptions(s.NumVertices(), s.NumArcs())
	opt.DHigh = popt.DHigh
	layout, err := partition.BuildStreaming(s, popt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunLayout(layout, opt)
	if err != nil {
		t.Fatal(err)
	}

	addrs := coreFreeAddrs(t, p)
	results := make([]*RankResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := comm.DialTCPWorld(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer ep.Close()
			l, err := partition.BuildStreaming(s, popt)
			if err != nil {
				errs[r] = err
				return
			}
			results[r], errs[r] = RunRankLayout(ep, l.Parts[r], opt)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	m := make(graph.Membership, s.NumVertices())
	for _, res := range results {
		for i, u := range res.Tracked {
			m[u] = res.Labels[i]
		}
	}
	m.Normalize()
	if results[0].Modularity != want.Modularity {
		t.Errorf("Q = %s, in-process %s",
			strconv.FormatFloat(results[0].Modularity, 'x', -1, 64),
			strconv.FormatFloat(want.Modularity, 'x', -1, 64))
	}
	for u := range m {
		if m[u] != want.Membership[u] {
			t.Fatalf("vertex %d in community %d, in-process %d", u, m[u], want.Membership[u])
		}
	}
}

func TestRunLayoutErrors(t *testing.T) {
	if _, err := RunLayout(nil, Options{}); err == nil {
		t.Error("nil layout: expected error")
	}
	s := goldenSharded(t, 2)
	layout, err := partition.BuildStreaming(s, partition.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLayout(layout, Options{P: 3}); err == nil {
		t.Error("P mismatch: expected error")
	}
}
