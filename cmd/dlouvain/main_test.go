package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/louvain"
	"repro/internal/partition"
)

// dlouvain runs the command body and returns exit code, stdout and stderr.
func dlouvain(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins usage errors (2, before anything is loaded) apart from
// failed runs (1), with the message the user sees. A NaN edge weight parses
// but is refused by the partitioner with partition.ErrWeight.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	nan := filepath.Join(dir, "nan.txt")
	if err := os.WriteFile(nan, []byte("0 1 NaN\n"), 0o644); err != nil {
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
			"dlouvain: -oocore solves from a sharded binary; pass -graph FILE.sbin (gengraph -stream writes one)\n"},
		{"oocore-seq", []string{"-oocore", "-graph", "g.sbin", "-seq"}, 2,
			"dlouvain: -seq and -levels need the whole graph in RAM; drop them with -oocore\n"},
		{"bad-heuristic", []string{"-gen", "rmat:scale=4", "-heuristic", "greedy"}, 2, "dlouvain: unknown heuristic \"greedy\"\n"},
		{"bad-partitioning", []string{"-gen", "rmat:scale=4", "-partitioning", "2d"}, 2, "dlouvain: "},
		{"missing-graph", []string{"-graph", filepath.Join(dir, "none.txt")}, 1, "dlouvain: "},
		{"bad-spec", []string{"-gen", "nosuchkind:n=3"}, 1, "dlouvain: "},
		{"nan-weight", []string{"-graph", nan}, 1, "dlouvain: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := dlouvain(tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if tc.name == "nan-weight" && !strings.Contains(stderr, partition.ErrWeight.Error()) {
				t.Errorf("stderr %q does not name %q", stderr, partition.ErrWeight)
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
