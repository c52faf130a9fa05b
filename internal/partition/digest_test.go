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
// FNV-64a value: per rank the owned ids, OwnedWDeg, every Arc{To,W} of
// AdjOwned and AdjHub in stored order (length-prefixed per vertex), the
// ghosts, the subscriber lists in ascending vertex order and TotalWeight2,
// after the shared hub directory and its weighted degrees. Any reordering of
// an append and any arc placed on another rank changes it. Weights are
// hashed as the float64 bits of their de-quantised value, which is what a
// float64 layout held wherever quantisation is exact.
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
	putW := func(w int64) { put(math.Float64bits(Dequantise(w))) }
	putWs := func(xs []int64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			putW(x)
		}
	}
	putAdj := func(adj [][]Arc) {
		put(uint64(len(adj)))
		for _, as := range adj {
			put(uint64(len(as)))
			for _, a := range as {
				put(uint64(a.To))
				putW(a.W)
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
		putWs(sp.OwnedWDeg)
		putAdj(sp.AdjOwned)
		putInts(sp.Hubs)
		putWs(sp.HubWDeg)
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
		putW(sp.TotalWeight2)
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
// count must reproduce it. Weights are hashed de-quantised: the R-MAT and
// LFR rows, whose weights are integers, therefore hash what a float64
// layout held, which proves quantisation lossless there; the golden
// fixture's random (0,1) weights round, so its rows hash the rounded ones.
var layoutDigests = []struct {
	graph    string
	kind     Kind
	dhigh, p int
	digest   uint64
}{
	{"golden", Delegate, 1, 1, 0x1a3ea09186a2fd82},  // hubs 48
	{"golden", Delegate, 2, 2, 0x9cda24b8ad558e47},  // hubs 48
	{"golden", Delegate, 4, 4, 0xef5ce4b0c1a26dbe},  // hubs 47
	{"golden", Delegate, 7, 7, 0xb85545f481c3bb48},  // hubs 31
	{"golden", Delegate, 8, 1, 0x9559420a69369b48},  // hubs 24
	{"golden", Delegate, 8, 2, 0x8c3b8a8db88ffbf0},  // hubs 24
	{"golden", Delegate, 8, 4, 0xa9680a5104e61bc8},  // hubs 24
	{"golden", Delegate, 8, 7, 0x14e1b27b4f6eaef1},  // hubs 24
	{"golden", OneD, 1, 1, 0xfe7e1dcbeab81573},      // hubs 0
	{"golden", OneD, 2, 2, 0x5fff1d63edf0ae49},      // hubs 0
	{"golden", OneD, 4, 4, 0xaffce7adc9026380},      // hubs 0
	{"golden", OneD, 7, 7, 0x150df411d0db3b39},      // hubs 0
	{"rmat12", Delegate, 1, 1, 0x7c3a3b5af46017ab},  // hubs 3350
	{"rmat12", Delegate, 2, 2, 0x5264fe2c9897b2d0},  // hubs 2867
	{"rmat12", Delegate, 4, 4, 0x32506b1473cbfe14},  // hubs 2284
	{"rmat12", Delegate, 7, 7, 0x38c4be2918ee98d3},  // hubs 1783
	{"rmat12", Delegate, 8, 1, 0xb1ab1bc53c2ddfe6},  // hubs 1685
	{"rmat12", Delegate, 8, 2, 0xb2004b37782cae75},  // hubs 1685
	{"rmat12", Delegate, 8, 4, 0x8af6006542fd3bb3},  // hubs 1685
	{"rmat12", Delegate, 8, 7, 0x56c1c5dc6f4b2690},  // hubs 1685
	{"rmat12", OneD, 1, 1, 0xc90fe49dab314370},      // hubs 0
	{"rmat12", OneD, 2, 2, 0xc71cb94c8762f608},      // hubs 0
	{"rmat12", OneD, 4, 4, 0xa9e559d1d1446535},      // hubs 0
	{"rmat12", OneD, 7, 7, 0x93ea89705ce1ca95},      // hubs 0
	{"lfr3000", Delegate, 1, 1, 0xa3a783b5a49b7a48}, // hubs 3000
	{"lfr3000", Delegate, 2, 2, 0xb592e1eeec96026e}, // hubs 3000
	{"lfr3000", Delegate, 4, 4, 0x92acdbec24147573}, // hubs 2902
	{"lfr3000", Delegate, 7, 7, 0x9dae9eae3ba72467}, // hubs 1164
	{"lfr3000", Delegate, 8, 1, 0x69e218395ffa08cf}, // hubs 911
	{"lfr3000", Delegate, 8, 2, 0x4a1731538b007c31}, // hubs 911
	{"lfr3000", Delegate, 8, 4, 0x02acce8060fb6437}, // hubs 911
	{"lfr3000", Delegate, 8, 7, 0xb2aa9f07a6712726}, // hubs 911
	{"lfr3000", OneD, 1, 1, 0xb5ff939dacc0a748},     // hubs 0
	{"lfr3000", OneD, 2, 2, 0x4df48614dcdac5c6},     // hubs 0
	{"lfr3000", OneD, 4, 4, 0xd8d80824da923cf1},     // hubs 0
	{"lfr3000", OneD, 7, 7, 0x298dc545aba107ec},     // hubs 0
}

// TestLayoutDigests pins the Layout of every row to the recorded digest
// through Build, through BuildStreaming over an .sbin at shard counts 1, 16
// and n (one vertex per window), and through build
// over 1, 3 and 64 in-RAM windows at GOMAXPROCS 1, 2 and 8. The last grid
// is the proof that fragments combine in an order independent of how the
// vertex range is chunked and of which goroutine ran which chunk.
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
		opt := Options{P: row.p, Kind: row.kind, DHigh: row.dhigh}
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
			for _, procs := range []int{1, 2, 8} {
				setProcs(t, procs)
				l, err := build(g.NumVertices(), g.NumArcs(), len(ws), readWindow, g.Degree, opt)
				if err != nil {
					t.Fatalf("%s windows=%d procs=%d: %v", name, k, procs, err)
				}
				if d := layoutDigest(l); d != row.digest {
					t.Errorf("%s: build windows=%d procs=%d digest %#016x, recorded %#016x", name, k, procs, d, row.digest)
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

// TestDefaultThreshold pins the one default hub threshold: DHigh <= 0 means
// max(P, 4·arcs/n) in Build and in BuildStreaming alike, and the layout is
// the one an explicit DHigh of that value builds. A graph without vertices
// records P.
func TestDefaultThreshold(t *testing.T) {
	for name, g := range digestGraphs(t) {
		var buf bytes.Buffer
		if err := graph.WriteBinaryShardedV2(&buf, g, 16); err != nil {
			t.Fatal(err)
		}
		s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 7} {
			want := max(p, 4*int(g.NumArcs())/g.NumVertices())
			explicit, err := Build(g, Options{P: p, Kind: Delegate, DHigh: want})
			if err != nil {
				t.Fatal(err)
			}
			inRAM, err := Build(g, Options{P: p, Kind: Delegate})
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := BuildStreaming(s, Options{P: p, Kind: Delegate})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range []*Layout{inRAM, streamed} {
				if l.DHigh != want || layoutDigest(l) != layoutDigest(explicit) {
					t.Errorf("%s p=%d: default DHigh %d, digest %#016x; want %d, digest %#016x",
						name, p, l.DHigh, layoutDigest(l), want, layoutDigest(explicit))
				}
			}
		}
	}
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&buf, empty, 1); err != nil {
		t.Fatal(err)
	}
	s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	inRAM, err := Build(empty, Options{P: 3, Kind: Delegate})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := BuildStreaming(s, Options{P: 3, Kind: Delegate})
	if err != nil {
		t.Fatal(err)
	}
	if inRAM.DHigh != 3 || streamed.DHigh != 3 {
		t.Errorf("0 vertices: default DHigh %d in RAM, %d streamed; want P = 3", inRAM.DHigh, streamed.DHigh)
	}
}
