package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// serve runs the command body on the given stdin and returns exit code,
// stdout and stderr.
func serve(stdin string, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins usage errors (2, before any graph is read) apart from
// failed loads (1), with the message the user sees. The usage rows name a
// graph file that does not exist, so a usage error that waited for the
// load would exit 1.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none.txt")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n"},
		{"bad-heuristic", []string{"-graph", missing, "-heuristic", "greedy"}, 2, "dserver: unknown heuristic \"greedy\"\n"},
		{"bad-partitioning", []string{"-graph", missing, "-partitioning", "2d"}, 2, "dserver: unknown partitioning \"2d\"\n"},
		{"no-graph", nil, 2, "dserver: pass one of -graph FILE and -gen SPEC\n"},
		{"zero-ranks", []string{"-graph", missing, "-p", "0"}, 2, "dserver: -p 0, want >= 1\n"},
		{"missing-graph", []string{"-graph", missing}, 1, "dserver: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := serve("", tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("failed run wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestStdioSession pins one session over stdin/stdout on four 5-cliques at
// P = 2: a community query, the modularity, and an unknown verb, one reply
// line each.
func TestStdioSession(t *testing.T) {
	code, stdout, stderr := serve("community 0\nmodularity\nbogus\n",
		"-gen", "caveman:cliques=4,size=5", "-p", "2")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	const want = "community 0 0\n" +
		"modularity 0x1.51745d1745d17p-01\n" +
		"error: unknown command \"bogus\"\n"
	if stdout != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
	if !strings.HasPrefix(stderr, "dserver: 20 vertices, ") {
		t.Errorf("stderr %q does not report the solved graph", stderr)
	}
}
