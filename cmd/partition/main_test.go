package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// partitionCmd runs the command body and returns exit code, stdout and
// stderr.
func partitionCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCensusRows pins the census of one R-MAT graph at p = 4 for both
// partitionings. Ownership is round-robin over π-space ids, so 1D is within
// 13% of the mean arc load on its own (2.02× the mean while the unpermuted
// ids were dealt as generated); the default threshold delegates only the 3
// hubs that bring every rank within 10%, so W is 0.077, not 0.
func TestCensusRows(t *testing.T) {
	code, stdout, stderr := partitionCmd("-gen", "rmat:scale=10,seed=1", "-procs", "4")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	want := `graph: 1024 vertices, 10435 edges, max degree 457, avg degree 20.4

p      kind       min edges  med edges  max edges        W max ghosts   hubs
4      1d              4830       5095       5898    0.130        535      0
4      delegate        4935       5218       5621    0.077        523      3
`
	if stdout != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestHubsMatchSolver pins that the census describes the layout dlouvain
// solves: at the default -dhigh, the delegate row counts the hubs core.Run
// reports for the same graph and P.
func TestHubsMatchSolver(t *testing.T) {
	const spec = "rmat:scale=10,seed=1"
	g, _, err := gen.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(g, core.Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := partitionCmd("-gen", spec, "-procs", "4")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	var hubs int
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) == 8 && f[1] == "delegate" {
			if hubs, err = strconv.Atoi(f[7]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hubs != res.HubCount {
		t.Errorf("census reports %d delegate hubs, core.Run solves with %d\n%s", hubs, res.HubCount, stdout)
	}
}

// TestExitCodes pins usage errors (2, before anything is loaded) apart from
// failed loads (1), with the message the user sees, and runs an empty graph
// to completion.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# vertices 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	emptySbin := filepath.Join(dir, "empty.sbin")
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&buf, g, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(emptySbin, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n"},
		{"no-input", nil, 2, "partition: pass one of -graph FILE and -gen SPEC\n"},
		{"both-inputs", []string{"-graph", filepath.Join(dir, "none.txt"), "-gen", "rmat:scale=4"}, 2,
			"partition: pass one of -graph FILE and -gen SPEC\n"},
		{"bad-procs", []string{"-gen", "rmat:scale=4", "-procs", "4,0"}, 2, "partition: bad processor count \"0\"\n"},
		{"oocore-not-sbin", []string{"-oocore", "-graph", empty}, 2,
			"partition: -oocore reads a sharded binary; pass -graph FILE.sbin\n"},
		{"missing-graph", []string{"-graph", filepath.Join(dir, "none.txt")}, 1, "partition: "},
		{"missing-sbin", []string{"-oocore", "-graph", filepath.Join(dir, "none.sbin")}, 1, "partition: "},
		{"empty-graph", []string{"-graph", empty, "-procs", "4"}, 0, ""},
		{"empty-sbin-oocore", []string{"-oocore", "-graph", emptySbin, "-procs", "4"}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := partitionCmd(tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if tc.code != 0 && stdout != "" {
				t.Errorf("failed run wrote to stdout: %q", stdout)
			}
			if tc.code == 0 && !strings.Contains(stdout, "\n4      delegate           0          0          0    0.000          0      0\n") {
				t.Errorf("empty graph: no all-zero delegate row in\n%s", stdout)
			}
		})
	}
}
