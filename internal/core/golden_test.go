package core

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Golden end-to-end test: a committed fixture graph with the expected
// community assignment and modularity per (heuristic, rank count),
// reproduced exactly — hex-float modularity, label-for-label membership —
// over both the in-process and the TCP loopback transport. Any change to
// the algorithm's arithmetic, iteration order, or message layout that
// shifts a single label shows up as a readable diff here.
//
// Regenerate after an intentional behavior change with:
//
//	go test ./internal/core/ -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden_test.go expectation files")

func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "golden", "graph.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func goldenPath(h Heuristic, p int) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_p%d.txt", h, p))
}

// formatGolden renders a result: the modularity as a lossless hex float on
// the first line, the membership labels on the second.
func formatGolden(q float64, m graph.Membership) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Q %s\n", strconv.FormatFloat(q, 'x', -1, 64))
	labels := make([]string, len(m))
	for i, c := range m {
		labels[i] = strconv.Itoa(c)
	}
	sb.WriteString(strings.Join(labels, " "))
	sb.WriteString("\n")
	return sb.String()
}

func parseGolden(t *testing.T, path string) (float64, []int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "Q ") {
		t.Fatalf("%s: malformed golden file", path)
	}
	q, err := strconv.ParseFloat(strings.TrimPrefix(lines[0], "Q "), 64)
	if err != nil {
		t.Fatalf("%s: bad modularity: %v", path, err)
	}
	fields := strings.Fields(lines[1])
	labels := make([]int, len(fields))
	for i, f := range fields {
		if labels[i], err = strconv.Atoi(f); err != nil {
			t.Fatalf("%s: bad label %q: %v", path, f, err)
		}
	}
	return q, labels
}

// coreFreeAddrs reserves n distinct loopback ports and returns their
// addresses.
func coreFreeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// worldFunc starts a world of p ranks and runs fn on each, the signature
// of comm.RunWorld.
type worldFunc func(p int, fn func(comm.Comm) error) error

// tcpWorld is comm.RunWorld over TCP loopback: p endpoints on reserved
// ports, one goroutine per rank.
func tcpWorld(t *testing.T) worldFunc {
	return func(p int, fn func(comm.Comm) error) error {
		addrs := coreFreeAddrs(t, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ep, err := comm.DialTCPWorld(r, addrs, comm.Backoff{})
				if err != nil {
					errs[r] = err
					return
				}
				defer ep.Close()
				errs[r] = fn(ep)
			}(r)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
}

// worldResult solves g through RunRankLayout on every rank of a world that
// world starts, and returns rank 0's Result.
func worldResult(t *testing.T, world worldFunc, g *graph.Graph, opt Options) *Result {
	t.Helper()
	layout, err := partition.Build(g, opt.PartitionOptions())
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	err = world(opt.P, func(c comm.Comm) error {
		r, err := RunRankLayout(c, layout.Parts[c.Rank()], opt)
		if c.Rank() == 0 {
			res = r
		} else if r != nil {
			return fmt.Errorf("rank %d returned a Result", c.Rank())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult reports every field where got differs from want, except the
// wall-clock ones: PartitionTime, the stage and total times and Breakdown.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < gv.NumField(); i++ {
		switch f := gv.Type().Field(i).Name; f {
		case "PartitionTime", "Stage1Time", "Stage2Time", "TotalTime", "Breakdown":
		default:
			if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("%s: %s differs from the in-process run's", name, f)
			}
		}
	}
}

// solveRank is one rank's solve without the answer gather, on its part of
// g's layout: for tests that wrap a rank's communicator to log or audit
// its frames.
func solveRank(c comm.Comm, g *graph.Graph, opt Options) error {
	layout, err := partition.Build(g, opt.PartitionOptions())
	if err != nil {
		return err
	}
	_, err = runRank(c, layout.Parts[c.Rank()], opt, defaultStop)
	return err
}

func TestGoldenEndToEnd(t *testing.T) {
	withInvariants(t)
	g := goldenGraph(t)
	for _, h := range []Heuristic{HeuristicSized, HeuristicEnhanced, HeuristicSimple} {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/p%d", h, p), func(t *testing.T) {
				opt := Options{P: p, Heuristic: h}
				res, err := Run(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				path := goldenPath(h, p)
				if *updateGolden {
					if err := os.WriteFile(path, []byte(formatGolden(res.Modularity, res.Membership)), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				wantQ, wantLabels := parseGolden(t, path)
				check := func(transport string, q float64, m graph.Membership) {
					if q != wantQ {
						t.Errorf("%s: Q = %s, golden %s", transport,
							strconv.FormatFloat(q, 'x', -1, 64), strconv.FormatFloat(wantQ, 'x', -1, 64))
					}
					if len(m) != len(wantLabels) {
						t.Fatalf("%s: %d labels, golden %d", transport, len(m), len(wantLabels))
					}
					for u := range m {
						if m[u] != wantLabels[u] {
							t.Errorf("%s: vertex %d in community %d, golden %d", transport, u, m[u], wantLabels[u])
							return
						}
					}
				}
				check("inproc", res.Modularity, res.Membership)
				if p > 1 && res.BalanceRatio < 1 {
					t.Errorf("BalanceRatio = %g, want >= 1 (work max over work mean)", res.BalanceRatio)
				}
				tcp := worldResult(t, tcpWorld(t), g, opt)
				check("tcp", tcp.Modularity, tcp.Membership)
			})
		}
	}
}
