package partition

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// layoutDigest folds everything a solve reads from a Layout into one
// FNV-64a value: per rank the owned ids, OwnedWDeg bits, every Arc{To,W} of
// AdjOwned and AdjHub in stored order (length-prefixed per vertex), the
// ghosts, the subscriber lists in ascending vertex order and the
// TotalWeight2 bits, after the shared hub directory and its weighted
// degrees. Any reordering of an append, any float summed in another order
// and any arc placed on another rank changes it.
func layoutDigest(l *Layout) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	putInts := func(xs []int) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	putF64s := func(xs []float64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	putAdj := func(adj [][]Arc) {
		put(uint64(len(adj)))
		for _, as := range adj {
			put(uint64(len(as)))
			for _, a := range as {
				put(uint64(a.To))
				put(math.Float64bits(a.W))
			}
		}
	}
	put(uint64(l.P))
	put(uint64(l.Kind))
	put(uint64(l.DHigh))
	putInts(l.Hubs)
	for _, sp := range l.Parts {
		put(uint64(sp.Rank))
		put(uint64(sp.GlobalVertices))
		putInts(sp.Owned)
		putF64s(sp.OwnedWDeg)
		putAdj(sp.AdjOwned)
		putInts(sp.Hubs)
		putF64s(sp.HubWDeg)
		putAdj(sp.AdjHub)
		putInts(sp.Ghosts)
		vs := make([]int, 0, len(sp.Subscribers))
		for v := range sp.Subscribers {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		for _, v := range vs {
			put(uint64(v))
			putInts(sp.Subscribers[v])
		}
		put(math.Float64bits(sp.TotalWeight2))
	}
	return h.Sum64()
}

// digestGraphs is the corpus of TestLayoutDigests: the golden e2e fixture
// (random real weights), a hub-heavy R-MAT with duplicate-summed weights
// and an LFR graph with a flat degree tail.
func digestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := streamGraphs(t)
	lfr, _, err := gen.LFR(gen.DefaultLFR(3000, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	gs["lfr3000"] = lfr
	return gs
}

// layoutDigests was recorded from Build at commit 11a6fa5, when Build and
// BuildStreaming were two emission kernels. It is the only reference the
// partitioner keeps: every builder entry point, window count and worker
// count must reproduce it.
var layoutDigests = []struct {
	graph    string
	kind     Kind
	dhigh, p int
	digest   uint64
}{
	{"golden", Delegate, 0, 1, 0xfc758cd10a02cde4},  // hubs 48
	{"golden", Delegate, 0, 2, 0xb97d91be233b2f4f},  // hubs 48
	{"golden", Delegate, 0, 4, 0x65b0ee5e40322c2a},  // hubs 47
	{"golden", Delegate, 0, 7, 0xfdf0b6c9c2b3de2a},  // hubs 31
	{"golden", Delegate, 8, 1, 0x38eee0804adc98fa},  // hubs 24
	{"golden", Delegate, 8, 2, 0x65894749cda0c33e},  // hubs 24
	{"golden", Delegate, 8, 4, 0x0cfe4d3578c5f756},  // hubs 24
	{"golden", Delegate, 8, 7, 0x08fae62b7a08f827},  // hubs 24
	{"golden", OneD, 0, 1, 0x7d710533bb85d5f9},      // hubs 0
	{"golden", OneD, 0, 2, 0x7b25e94a65448034},      // hubs 0
	{"golden", OneD, 0, 4, 0x0809485942b089d5},      // hubs 0
	{"golden", OneD, 0, 7, 0xe74aadc32d52533f},      // hubs 0
	{"rmat12", Delegate, 0, 1, 0x7c3a3b5af46017ab},  // hubs 3350
	{"rmat12", Delegate, 0, 2, 0x5264fe2c9897b2d0},  // hubs 2867
	{"rmat12", Delegate, 0, 4, 0x32506b1473cbfe14},  // hubs 2284
	{"rmat12", Delegate, 0, 7, 0x38c4be2918ee98d3},  // hubs 1783
	{"rmat12", Delegate, 8, 1, 0xb1ab1bc53c2ddfe6},  // hubs 1685
	{"rmat12", Delegate, 8, 2, 0xb2004b37782cae75},  // hubs 1685
	{"rmat12", Delegate, 8, 4, 0x8af6006542fd3bb3},  // hubs 1685
	{"rmat12", Delegate, 8, 7, 0x56c1c5dc6f4b2690},  // hubs 1685
	{"rmat12", OneD, 0, 1, 0xc90fe49dab314370},      // hubs 0
	{"rmat12", OneD, 0, 2, 0xc71cb94c8762f608},      // hubs 0
	{"rmat12", OneD, 0, 4, 0xa9e559d1d1446535},      // hubs 0
	{"rmat12", OneD, 0, 7, 0x93ea89705ce1ca95},      // hubs 0
	{"lfr3000", Delegate, 0, 1, 0xa3a783b5a49b7a48}, // hubs 3000
	{"lfr3000", Delegate, 0, 2, 0xb592e1eeec96026e}, // hubs 3000
	{"lfr3000", Delegate, 0, 4, 0x92acdbec24147573}, // hubs 2902
	{"lfr3000", Delegate, 0, 7, 0x9dae9eae3ba72467}, // hubs 1164
	{"lfr3000", Delegate, 8, 1, 0x69e218395ffa08cf}, // hubs 911
	{"lfr3000", Delegate, 8, 2, 0x4a1731538b007c31}, // hubs 911
	{"lfr3000", Delegate, 8, 4, 0x02acce8060fb6437}, // hubs 911
	{"lfr3000", Delegate, 8, 7, 0xb2aa9f07a6712726}, // hubs 911
	{"lfr3000", OneD, 0, 1, 0xb5ff939dacc0a748},     // hubs 0
	{"lfr3000", OneD, 0, 2, 0x4df48614dcdac5c6},     // hubs 0
	{"lfr3000", OneD, 0, 4, 0xd8d80824da923cf1},     // hubs 0
	{"lfr3000", OneD, 0, 7, 0x298dc545aba107ec},     // hubs 0
}

// TestLayoutDigests pins the Layout of every row to the recorded digest
// through Build, through BuildStreaming over an .sbin at shard counts 1, 16
// and n (one vertex per window; all three graphs have few enough distinct
// weights to be written as v2 — BuildStreaming sees decoded windows either
// way, and TestStreamingBuildMatchesInRAM has a v1 file), and through build
// over 1, 3 and 64 in-RAM windows at 1, 2 and 8 workers. The last grid is
// the proof that fragments combine in an order independent of how the
// vertex range is chunked and of which worker ran which chunk.
func TestLayoutDigests(t *testing.T) {
	gs := digestGraphs(t)
	type file struct {
		name string
		s    *graph.Sharded
	}
	files := map[string][]file{}
	for name, g := range gs {
		for _, shards := range []int{1, 16, g.NumVertices()} {
			var buf bytes.Buffer
			if err := graph.WriteBinaryShardedV2(&buf, g, shards); err != nil {
				t.Fatal(err)
			}
			s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = append(files[name], file{fmt.Sprintf("shards=%d", shards), s})
		}
	}
	for _, row := range layoutDigests {
		name := fmt.Sprintf("%s/%v/dhigh=%d/p=%d", row.graph, row.kind, row.dhigh, row.p)
		opt := Options{P: row.p, Kind: row.kind, DHigh: row.dhigh, Workers: 2}
		g := gs[row.graph]
		l, err := Build(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := layoutDigest(l); d != row.digest {
			t.Errorf("%s: Build digest %#016x, recorded %#016x", name, d, row.digest)
		}
		for _, k := range []int{1, 3, 64} {
			ws := g.Windows(k)
			readWindow := func(i int) (*graph.Window, error) { return ws[i], nil }
			for _, workers := range []int{1, 2, 8} {
				opt.Workers = workers
				l, err := build(g.NumVertices(), len(ws), readWindow, g.Degree, g.WeightedDegree, g.TotalWeight2(), opt)
				if err != nil {
					t.Fatalf("%s windows=%d workers=%d: %v", name, k, workers, err)
				}
				if d := layoutDigest(l); d != row.digest {
					t.Errorf("%s: build windows=%d workers=%d digest %#016x, recorded %#016x", name, k, workers, d, row.digest)
				}
			}
		}
		for _, f := range files[row.graph] {
			l, err := BuildStreaming(f.s, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", name, f.name, err)
			}
			if d := layoutDigest(l); d != row.digest {
				t.Errorf("%s: BuildStreaming %s digest %#016x, recorded %#016x", name, f.name, d, row.digest)
			}
		}
	}
}
