package partition

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
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

// layoutDigests was first recorded from Build at commit 11a6fa5, when Build
// and BuildStreaming were two emission kernels, and re-recorded once when
// the layout moved into π-space (Scramble); TestScrambleIsRelabelling keeps
// the identity-map digests. It is the only reference the partitioner keeps:
// every builder entry point, window count and worker count must reproduce
// it. Weights are hashed de-quantised: the R-MAT and
// LFR rows, whose weights are integers, therefore hash what a float64
// layout held, which proves quantisation lossless there; the golden
// fixture's random (0,1) weights round, so its rows hash the rounded ones.
var layoutDigests = []struct {
	graph    string
	kind     Kind
	dhigh, p int
	digest   uint64
}{
	{"golden", Delegate, 1, 1, 0xb0ea267e0ef7c8b6},  // hubs 48
	{"golden", Delegate, 2, 2, 0x420759854bd217ff},  // hubs 48
	{"golden", Delegate, 4, 4, 0x01ffe2e0220aa9b2},  // hubs 47
	{"golden", Delegate, 7, 7, 0xbd48629cc62d4543},  // hubs 31
	{"golden", Delegate, 8, 1, 0xd53ad4f559a3decd},  // hubs 24
	{"golden", Delegate, 8, 2, 0xb0ebac97cbba13fb},  // hubs 24
	{"golden", Delegate, 8, 4, 0xf57876283971de31},  // hubs 24
	{"golden", Delegate, 8, 7, 0x7bc94815b93db99c},  // hubs 24
	{"golden", OneD, 1, 1, 0x5dbf0cd67699b453},      // hubs 0
	{"golden", OneD, 2, 2, 0x412b4fad1e8b7ccb},      // hubs 0
	{"golden", OneD, 4, 4, 0xf47c5301da0ee693},      // hubs 0
	{"golden", OneD, 7, 7, 0xb28c81cf8861c106},      // hubs 0
	{"rmat12", Delegate, 1, 1, 0x3822a0a2eacc21ba},  // hubs 3350
	{"rmat12", Delegate, 2, 2, 0x2b938d6e37528f46},  // hubs 2867
	{"rmat12", Delegate, 4, 4, 0x66780219949a388f},  // hubs 2284
	{"rmat12", Delegate, 7, 7, 0x1eac772de17f7635},  // hubs 1783
	{"rmat12", Delegate, 8, 1, 0x78906cd992729df6},  // hubs 1685
	{"rmat12", Delegate, 8, 2, 0x19aaad6b8df22d13},  // hubs 1685
	{"rmat12", Delegate, 8, 4, 0x13c378f910254ddd},  // hubs 1685
	{"rmat12", Delegate, 8, 7, 0x19d1b0e2321afd42},  // hubs 1685
	{"rmat12", OneD, 1, 1, 0x136a280baaad290a},      // hubs 0
	{"rmat12", OneD, 2, 2, 0xd5374f201189e51f},      // hubs 0
	{"rmat12", OneD, 4, 4, 0x529145446162aca3},      // hubs 0
	{"rmat12", OneD, 7, 7, 0x6ff1272379ffa3c6},      // hubs 0
	{"lfr3000", Delegate, 1, 1, 0xb12ce124653b5f2f}, // hubs 3000
	{"lfr3000", Delegate, 2, 2, 0xf36f218c7da08771}, // hubs 3000
	{"lfr3000", Delegate, 4, 4, 0x4fac757626eca0a9}, // hubs 2902
	{"lfr3000", Delegate, 7, 7, 0xc3ad2db6a2fdef54}, // hubs 1164
	{"lfr3000", Delegate, 8, 1, 0x13044b8b76cabccd}, // hubs 911
	{"lfr3000", Delegate, 8, 2, 0xfc4a09cb012f69f9}, // hubs 911
	{"lfr3000", Delegate, 8, 4, 0x6ae3387bc8337993}, // hubs 911
	{"lfr3000", Delegate, 8, 7, 0xbeb1ececfb46fd2d}, // hubs 911
	{"lfr3000", OneD, 1, 1, 0xa785112b562a3ccf},     // hubs 0
	{"lfr3000", OneD, 2, 2, 0x647b87176574331e},     // hubs 0
	{"lfr3000", OneD, 4, 4, 0x9286aa45a6dc8961},     // hubs 0
	{"lfr3000", OneD, 7, 7, 0x7736f5ecfaed9852},     // hubs 0
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

// thresholdOracle is HubThreshold by brute force: it tries every candidate
// d from one past the largest degree (at least the floor) down to the floor,
// recomputes every rank's non-hub arc load from scratch, each vertex u at
// its π-space owner Owner(π(u), p), and returns the first d at which none
// exceeds (1 + slack)·arcs/p; the floor when none does.
func thresholdOracle(g *graph.Graph, p int, slack float64) int {
	n := g.NumVertices()
	if n == 0 {
		return p
	}
	floor := max(p, 4*int(g.NumArcs())/n)
	limit := (1 + slack) * float64(g.NumArcs()) / float64(p)
	pi := NewScramble(n)
	for d := max(floor, g.MaxDegree()+1); d >= floor; d-- {
		loads := make([]int64, p)
		for u := 0; u < n; u++ {
			if g.Degree(u) < d {
				loads[Owner(pi.Of(u), p)] += int64(g.Degree(u))
			}
		}
		if float64(slices.Max(loads)) <= limit {
			return d
		}
	}
	return floor
}

// TestDefaultThreshold pins the one default hub threshold to its oracle:
// DHigh <= 0 means HubThreshold at hubSlack in Build and BuildStreaming
// alike, and the layout is the one an explicit DHigh of that value builds.
// The corpus reaches all three outcomes — the floor, a threshold between
// the floor and the largest degree, and no hubs (always so at P = 1). An
// explicit DHigh wins over the rule, and a graph without vertices records P.
func TestDefaultThreshold(t *testing.T) {
	gs := digestGraphs(t)
	ba, err := gen.BarabasiAlbert(2000, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	gs["ba2000"] = ba
	outcomes := map[string]int{}
	for name, g := range gs {
		var buf bytes.Buffer
		if err := graph.WriteBinaryShardedV2(&buf, g, 16); err != nil {
			t.Fatal(err)
		}
		s, err := graph.OpenSharded(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 7, 16, 64} {
			want := thresholdOracle(g, p, hubSlack)
			floor := max(p, 4*int(g.NumArcs())/g.NumVertices())
			switch {
			case want > g.MaxDegree():
				outcomes["no hubs"]++
			case want == floor:
				outcomes["floor"]++
			default:
				outcomes["between"]++
			}
			if p == 1 && want <= g.MaxDegree() {
				t.Errorf("%s p=1: oracle threshold %d leaves hubs", name, want)
			}
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
			// An explicit DHigh wins: the old floor rule's threshold builds
			// its own hub set, whatever the rule would have picked.
			pinned, err := BuildStreaming(s, Options{P: p, Kind: Delegate, DHigh: floor})
			if err != nil {
				t.Fatal(err)
			}
			hubs := 0
			for u := 0; u < g.NumVertices(); u++ {
				if g.Degree(u) >= floor {
					hubs++
				}
			}
			if pinned.DHigh != floor || len(pinned.Hubs) != hubs {
				t.Errorf("%s p=%d: DHigh %d gave DHigh %d and %d hubs, want %d hubs",
					name, p, floor, pinned.DHigh, len(pinned.Hubs), hubs)
			}
		}
	}
	for _, o := range []string{"no hubs", "floor", "between"} {
		if outcomes[o] == 0 {
			t.Errorf("no corpus row lands on outcome %q (%v)", o, outcomes)
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
