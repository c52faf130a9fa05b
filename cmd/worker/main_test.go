package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// worker runs the command body and returns exit code, stdout and stderr.
func worker(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// loopbackAddrs reserves n distinct loopback ports and returns them as a
// -addrs list.
func loopbackAddrs(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return strings.Join(addrs, ",")
}

// TestThreeRanks runs a three-rank world on loopback, one goroutine per
// rank, from a generator spec and out of core from a .sbin of the same
// graph. Rank 0 gathers the membership; its modularity line must carry the
// Q an in-process core.Run of that graph reports.
func TestThreeRanks(t *testing.T) {
	const spec = "lfr:n=2000,mu=0.3,seed=1"
	g, _, err := gen.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(g, core.Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	sbin := filepath.Join(t.TempDir(), "g.sbin")
	f, err := os.Create(sbin)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinaryShardedV2(f, g, 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantQ := fmt.Sprintf("modularity: %.6f (", res.Modularity)

	for _, tc := range []struct {
		name  string
		input []string
	}{
		{"gen", []string{"-gen", spec}},
		{"oocore", []string{"-oocore", "-graph", sbin}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := loopbackAddrs(t, 3)
			codes := make([]int, 3)
			stdouts := make([]string, 3)
			stderrs := make([]string, 3)
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					args := append([]string{"-rank", fmt.Sprint(r), "-addrs", addrs,
						"-dial-base", "5ms", "-dial-total", "20s", "-comm-deadline", "60s"}, tc.input...)
					codes[r], stdouts[r], stderrs[r] = worker(args...)
				}(r)
			}
			wg.Wait()
			for r := 0; r < 3; r++ {
				if codes[r] != 0 || stderrs[r] != "" {
					t.Fatalf("rank %d: exit %d\nstdout: %s\nstderr: %s", r, codes[r], stdouts[r], stderrs[r])
				}
			}
			var line string
			for _, l := range strings.Split(stdouts[0], "\n") {
				if strings.HasPrefix(l, "modularity: ") {
					line = l
				}
			}
			if !strings.HasPrefix(line, wantQ) {
				t.Errorf("rank 0 reports %q, want a line starting %q\n%s", line, wantQ, stdouts[0])
			}
			for r := 1; r < 3; r++ {
				want := fmt.Sprintf("rank %d done: Q=%.6f,", r, res.Modularity)
				if !strings.HasPrefix(stdouts[r], want) {
					t.Errorf("rank %d printed %q, want a line starting %q", r, stdouts[r], want)
				}
			}
		})
	}
}

// TestExitCodes pins usage errors (2, before anything is loaded or dialed)
// apart from failed runs (1), with the message the user sees.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n"},
		{"no-rank", []string{"-addrs", "127.0.0.1:1"}, 2, "worker: -rank -1 out of range for 1 addresses\n"},
		{"rank-past-addrs", []string{"-rank", "2", "-addrs", "127.0.0.1:1,127.0.0.1:2"}, 2,
			"worker: -rank 2 out of range for 2 addresses\n"},
		{"no-input", []string{"-rank", "0", "-addrs", "127.0.0.1:1"}, 2, "worker: pass one of -graph FILE and -gen SPEC\n"},
		{"both-inputs", []string{"-rank", "0", "-addrs", "127.0.0.1:1", "-graph", filepath.Join(dir, "none.txt"), "-gen", "rmat:scale=4"}, 2,
			"worker: pass one of -graph FILE and -gen SPEC\n"},
		{"oocore-not-sbin", []string{"-rank", "0", "-addrs", "127.0.0.1:1", "-oocore", "-graph", filepath.Join(dir, "g.txt")}, 2,
			"worker: -oocore solves from a sharded binary; pass -graph FILE.sbin\n"},
		{"bad-heuristic", []string{"-rank", "0", "-addrs", "127.0.0.1:1", "-heuristic", "greedy", "-gen", "rmat:scale=4"}, 2,
			"worker: unknown heuristic \"greedy\"\n"},
		{"missing-graph", []string{"-rank", "0", "-addrs", "127.0.0.1:1", "-graph", filepath.Join(dir, "none.txt")}, 1, "worker: "},
		{"missing-sbin", []string{"-rank", "0", "-addrs", "127.0.0.1:1", "-oocore", "-graph", filepath.Join(dir, "none.sbin")}, 1, "worker: "},
		{"bad-spec", []string{"-rank", "0", "-addrs", "127.0.0.1:1", "-gen", "nosuchkind:n=3"}, 1, "worker: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := worker(tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("failed run wrote to stdout: %q", stdout)
			}
		})
	}
}
