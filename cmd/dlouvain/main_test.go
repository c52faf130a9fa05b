package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/partition"
)

// TestMain lets the test binary stand in for the command: run with "--"
// and the command's arguments, it runs them and exits. TestThreeRanks
// starts its ranks that way, as OS processes of their own.
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i > 0 {
		os.Exit(run(os.Args[i+1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// dlouvain runs the command body and returns exit code, stdout and stderr.
func dlouvain(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins usage errors (2, before anything is loaded or dialed) apart from
// failed runs (1), with the message the user sees. The reader refuses a NaN
// edge weight; an infinite one parses but is refused by the partitioner with
// partition.ErrWeight.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	nan := filepath.Join(dir, "nan.txt")
	if err := os.WriteFile(nan, []byte("0 1 NaN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	inf := filepath.Join(dir, "inf.txt")
	if err := os.WriteFile(inf, []byte("0 1 +Inf\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n"},
		{"no-input", nil, 2, "dlouvain: pass one of -graph FILE and -gen SPEC\n"},
		{"both-inputs", []string{"-graph", filepath.Join(dir, "none.txt"), "-gen", "rmat:scale=4"}, 2,
			"dlouvain: pass one of -graph FILE and -gen SPEC\n"},
		{"zero-ranks", []string{"-graph", filepath.Join(dir, "none.txt"), "-p", "0"}, 2, "dlouvain: -p 0, want >= 1\n"},
		{"oocore-not-sbin", []string{"-oocore", "-graph", nan}, 2,
			"dlouvain: -oocore solves from a sharded binary; pass -graph FILE.sbin (gengraph -o FILE.sbin writes one)\n"},
		{"oocore-seq", []string{"-oocore", "-graph", "g.sbin", "-seq"}, 2,
			"dlouvain: -seq and -levels need the whole graph in RAM; drop them with -oocore\n"},
		{"bad-heuristic", []string{"-gen", "rmat:scale=4", "-heuristic", "greedy"}, 2, "dlouvain: unknown heuristic \"greedy\"\n"},
		{"retired-heuristic", []string{"-gen", "rmat:scale=4", "-heuristic", "strict"}, 2, "dlouvain: unknown heuristic \"strict\"\n"},
		{"bad-partitioning", []string{"-gen", "rmat:scale=4", "-partitioning", "2d"}, 2, "dlouvain: "},
		{"missing-graph", []string{"-graph", filepath.Join(dir, "none.txt")}, 1, "dlouvain: "},
		{"bad-spec", []string{"-gen", "nosuchkind:n=3"}, 1, "dlouvain: "},
		{"unknown-spec-key", []string{"-gen", "lfr:n=500,mux=0.9,sed=7"}, 1,
			"dlouvain: gen: spec lfr: unknown key \"mux\" (accepted: n mu seed)\n"},
		{"nan-weight", []string{"-graph", nan}, 1, "dlouvain: graph: line 1: bad weight \"NaN\": negative or NaN\n"},
		{"inf-weight", []string{"-graph", inf}, 1, "dlouvain: "},
		{"missing-sbin", []string{"-oocore", "-graph", filepath.Join(dir, "none.sbin")}, 1, "dlouvain: "},

		// The TCP mode refuses a world it cannot be a rank of before it
		// loads or dials anything.
		{"no-rank", []string{"-addrs", "127.0.0.1:1", "-gen", "rmat:scale=4"}, 2,
			"dlouvain: -rank -1 out of range for 1 addresses\n"},
		{"rank-past-addrs", []string{"-rank", "2", "-addrs", "127.0.0.1:1,127.0.0.1:2", "-gen", "rmat:scale=4"}, 2,
			"dlouvain: -rank 2 out of range for 2 addresses\n"},
		{"empty-addrs", []string{"-rank", "0", "-addrs", "", "-gen", "rmat:scale=4"}, 2,
			"dlouvain: -addrs \"\" has an empty address\n"},
		{"empty-address", []string{"-rank", "0", "-addrs", "127.0.0.1:1,,127.0.0.1:2", "-gen", "rmat:scale=4"}, 2,
			"dlouvain: -addrs \"127.0.0.1:1,,127.0.0.1:2\" has an empty address\n"},
		{"rank-without-addrs", []string{"-rank", "0", "-gen", "caveman:cliques=4,size=4"}, 2,
			"dlouvain: -rank and -dial-total need -addrs\n"},
		{"dial-total-without-addrs", []string{"-dial-total", "1s", "-gen", "caveman:cliques=4,size=4"}, 2,
			"dlouvain: -rank and -dial-total need -addrs\n"},
		{"p-not-addrs", []string{"-rank", "0", "-addrs", "127.0.0.1:1,127.0.0.1:2", "-p", "3", "-gen", "rmat:scale=4"}, 2,
			"dlouvain: -p 3 but -addrs lists 2 ranks\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := dlouvain(tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if code == 2 && stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
			if tc.name == "inf-weight" && !strings.Contains(stderr, partition.ErrWeight.Error()) {
				t.Errorf("stderr %q does not name %q", stderr, partition.ErrWeight)
			}
		})
	}
}

// TestExitCodesTCP pins that the TCP mode reports the input errors of
// TestExitCodes the same way, before it dials a peer: each row names rank 0
// of a two-rank world whose addresses nothing listens on, so a row that got
// as far as dialing would exit 1 with a dial error instead.
func TestExitCodesTCP(t *testing.T) {
	dir := t.TempDir()
	tcp := []string{"-rank", "0", "-addrs", "127.0.0.1:1,127.0.0.1:2", "-dial-total", "1ms"}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n"},
		{"no-input", nil, 2, "dlouvain: pass one of -graph FILE and -gen SPEC\n"},
		{"both-inputs", []string{"-graph", filepath.Join(dir, "none.txt"), "-gen", "rmat:scale=4"}, 2,
			"dlouvain: pass one of -graph FILE and -gen SPEC\n"},
		{"oocore-not-sbin", []string{"-oocore", "-graph", filepath.Join(dir, "g.txt")}, 2,
			"dlouvain: -oocore solves from a sharded binary; pass -graph FILE.sbin (gengraph -o FILE.sbin writes one)\n"},
		{"bad-heuristic", []string{"-heuristic", "greedy", "-gen", "rmat:scale=4"}, 2,
			"dlouvain: unknown heuristic \"greedy\"\n"},
		{"missing-graph", []string{"-graph", filepath.Join(dir, "none.txt")}, 1, "dlouvain: open "},
		{"bad-spec", []string{"-gen", "nosuchkind:n=3"}, 1, "dlouvain: "},
		{"unknown-spec-key", []string{"-gen", "lfr:n=500,mux=0.9,sed=7"}, 1,
			"dlouvain: gen: spec lfr: unknown key \"mux\" (accepted: n mu seed)\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := dlouvain(append(slices.Clone(tcp), tc.args...)...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("failed run wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestMembershipFile pins -o: the file holds "vertex community" lines that
// are byte-equal to core.Run's membership of the same generated graph, and
// stdout reports core.Run's modularity.
func TestMembershipFile(t *testing.T) {
	const spec = "lfr:n=1500,mu=0.3,seed=4"
	g, _, err := gen.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(g, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for v, c := range res.Membership {
		fmt.Fprintf(&want, "%d %d\n", v, c)
	}

	out := filepath.Join(t.TempDir(), "m.txt")
	code, stdout, stderr := dlouvain("-gen", spec, "-p", "4", "-o", out, "-trace")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-o wrote %d bytes that differ from core.Run's membership (%d bytes)", len(got), want.Len())
	}
	if line := fmt.Sprintf("modularity: %.6f (%d communities)\n", res.Modularity, res.Membership.NumCommunities()); !strings.Contains(stdout, line) {
		t.Errorf("stdout lacks %q:\n%s", line, stdout)
	}
	// The trace marks where stage 1 ends.
	if res.OuterLevels > 1 && !strings.Contains(stdout, " | ") {
		t.Errorf("trace has no stage-1 bar:\n%s", stdout)
	}
}

// TestSequentialGamma pins -seq to the resolution of the distributed solve:
// the serial baseline's printed Q is louvain.Run's at the same -gamma, not
// its standard modularity.
func TestSequentialGamma(t *testing.T) {
	const spec = "lfr:n=1000,mu=0.3,seed=1"
	g, _, err := gen.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	seq := louvain.Run(g, louvain.Options{Resolution: 2})
	if std := louvain.Run(g, louvain.Options{}); fmt.Sprintf("%.6f", std.Modularity) == fmt.Sprintf("%.6f", seq.Modularity) {
		t.Fatalf("γ=2 and γ=1 give the same serial Q %.6f; the graph cannot tell them apart", seq.Modularity)
	}
	code, stdout, stderr := dlouvain("-gen", spec, "-p", "4", "-gamma", "2", "-seq")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	want := fmt.Sprintf("sequential baseline: Q=%.6f (%d communities) in ", seq.Modularity, seq.Membership.NumCommunities())
	if !strings.Contains(stdout, want) {
		t.Errorf("stdout lacks %q:\n%s", want, stdout)
	}
}

// TestLevelsGamma pins -levels to the resolution of the solve: at -gamma 2
// the last level, which is the final membership, prints the final Q.
func TestLevelsGamma(t *testing.T) {
	code, stdout, stderr := dlouvain("-gen", "lfr:n=2000,mu=0.3,seed=1", "-p", "4", "-gamma", "2", "-levels")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	var q float64
	var last string
	for _, l := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(l, "modularity: ") {
			if _, err := fmt.Sscanf(l, "modularity: %f", &q); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(l, "  level ") {
			last = l
		}
	}
	if want := fmt.Sprintf(", Q=%.4f", q); !strings.HasSuffix(last, want) {
		t.Errorf("last level %q, want it to end %q (the final modularity %.6f)\n%s", last, want, q, stdout)
	}
}

// loopbackAddrs reserves n distinct loopback ports and returns them as an
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

// reportLines drops the wall-clock lines from a report.
func reportLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "times: ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestThreeRanks runs a three-rank TCP world on loopback, each rank an OS
// process (this test binary, re-executed through TestMain), from a
// generator spec and out of core from a .sbin of the same graph. Rank 0's
// report, wall-clock lines aside, must be the one dlouvain -p 3 prints.
func TestThreeRanks(t *testing.T) {
	const spec = "lfr:n=2000,mu=0.3,seed=1"
	g, _, err := gen.ParseSpec(spec)
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
	for _, tc := range []struct {
		name  string
		input []string
	}{
		{"gen", []string{"-gen", spec, "-trace", "-levels"}},
		{"oocore", []string{"-oocore", "-graph", sbin, "-trace"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, want, stderr := dlouvain(append([]string{"-p", "3"}, tc.input...)...)
			if code != 0 || stderr != "" {
				t.Fatalf("-p 3: exit %d\nstdout: %s\nstderr: %s", code, want, stderr)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			addrs := loopbackAddrs(t, 3)
			stdouts := make([]bytes.Buffer, 3)
			stderrs := make([]bytes.Buffer, 3)
			errs := make([]error, 3)
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				args := append([]string{"--", "-addrs", addrs, "-rank", fmt.Sprint(r),
					"-dial-total", "20s", "-comm-deadline", "60s"}, tc.input...)
				cmd := exec.CommandContext(ctx, os.Args[0], args...)
				cmd.Stdout, cmd.Stderr = &stdouts[r], &stderrs[r]
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					errs[r] = cmd.Run()
				}(r)
			}
			wg.Wait()
			for r := 0; r < 3; r++ {
				if errs[r] != nil || stderrs[r].Len() > 0 {
					t.Fatalf("rank %d: %v\nstdout: %s\nstderr: %s", r, errs[r], &stdouts[r], &stderrs[r])
				}
			}
			if got := reportLines(stdouts[0].String()); !slices.Equal(got, reportLines(want)) {
				t.Errorf("rank 0 reports\n%s\nwant, as -p 3 reports,\n%s", &stdouts[0], want)
			}
			for r := 1; r < 3; r++ {
				if line := fmt.Sprintf("rank %d: answer gathered at rank 0\n", r); !strings.HasSuffix(stdouts[r].String(), line) {
					t.Errorf("rank %d printed %q, want it to end %q", r, &stdouts[r], line)
				}
			}
		})
	}
}

// TestWireBreakdown checks -breakdown's byte rows against the communication
// line: the per-exchange rows and the per-rank counts each sum to the total,
// and every exchange a hub-bearing world runs sends something.
func TestWireBreakdown(t *testing.T) {
	code, stdout, stderr := dlouvain("-gen", "rmat:scale=10,seed=2", "-p", "3", "-dhigh", "40", "-breakdown")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	var total, maxRank int64
	var rows, ranks []int64
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "communication: "):
			if _, err := fmt.Sscanf(line, "communication: %d bytes total, %d bytes max per rank", &total, &maxRank); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		case strings.HasPrefix(line, "wire breakdown (bytes sent, all ranks): "):
			for _, f := range strings.Split(strings.TrimPrefix(line, "wire breakdown (bytes sent, all ranks): "), ", ") {
				var v int64
				if _, err := fmt.Sscan(f[strings.LastIndex(f, " ")+1:], &v); err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				rows = append(rows, v)
			}
		case strings.HasPrefix(line, "bytes sent per rank:"):
			for _, f := range strings.Fields(strings.TrimPrefix(line, "bytes sent per rank:")) {
				var v int64
				if _, err := fmt.Sscan(f, &v); err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				ranks = append(ranks, v)
			}
		}
	}
	sum := func(vs []int64) (s int64) {
		for _, v := range vs {
			s += v
		}
		return s
	}
	if len(rows) != 7 || len(ranks) != 3 || total == 0 {
		t.Fatalf("want 7 exchange rows, 3 ranks and a total, got %v, %v, %d:\n%s", rows, ranks, total, stdout)
	}
	if sum(rows) != total || sum(ranks) != total || slices.Max(ranks) != maxRank {
		t.Errorf("rows %v sum to %d, ranks %v to %d (max %d); communication line says %d total, %d max",
			rows, sum(rows), ranks, sum(ranks), slices.Max(ranks), total, maxRank)
	}
	if slices.Contains(rows, 0) {
		t.Errorf("an exchange sent nothing: %v\n%s", rows, stdout)
	}
}

// TestMemstats pins the two -memstats lines: the HeapInuse high-water that
// scripts/check.sh parses as the line's third field, and the bytes the run
// allocated, which a solve cannot leave at zero.
func TestMemstats(t *testing.T) {
	code, stdout, stderr := dlouvain("-gen", "rmat:scale=9,seed=2", "-p", "2", "-memstats")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	var high, alloc float64
	for _, line := range strings.Split(stdout, "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "heap high-water: "):
			if _, err := fmt.Sscanf(f[2], "%g", &high); err != nil || f[3] != "MB" {
				t.Fatalf("%q: %v", line, err)
			}
		case strings.HasPrefix(line, "heap allocated: "):
			if _, err := fmt.Sscanf(line, "heap allocated: %g MB", &alloc); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
	}
	if high <= 0 || alloc <= 0 {
		t.Errorf("high-water %g MB, allocated %g MB: want both > 0\n%s", high, alloc, stdout)
	}
}
