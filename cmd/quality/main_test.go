package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// qualityCmd runs the command body and returns exit code, stdout and stderr.
func qualityCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins scored runs (0) apart from bad files (1) and usage
// errors (2), with the message the user sees. A bad file writes nothing to
// stdout; the out-of-range row would ask for a 32 GB membership if the
// reader allocated by the largest vertex id.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := file("a.txt", "0 0\n1 0\n2 1\n3 1\n")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"scored", []string{"-a", a, "-b", file("b.txt", "3 7\n2 7\n\n1 5\n0 5\n")}, 0, ""},
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n"},
		{"no-b", []string{"-a", a}, 2, "quality: -a FILE and -b FILE are required\n"},
		{"missing", []string{"-a", a, "-b", filepath.Join(dir, "none.txt")}, 1, "quality: open "},
		{"out-of-range", []string{"-a", a, "-b", file("huge.txt", "0 0\n4000000000 1\n")}, 1,
			"quality: " + filepath.Join(dir, "huge.txt") + ": graph: membership line 2: vertex 4000000000 outside [0,2)"},
		{"duplicate", []string{"-a", a, "-b", file("dup.txt", "0 0\n0 1\n1 1\n")}, 1,
			"quality: " + filepath.Join(dir, "dup.txt") + ": graph: membership line 2: vertex 0 listed twice"},
		{"garbage", []string{"-a", file("bad.txt", "x y\n"), "-b", a}, 1, "quality: "},
		{"size-mismatch", []string{"-a", a, "-b", file("short.txt", "0 0\n1 0\n")}, 1, "quality: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := qualityCmd(tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) || (tc.code == 0) != (stderr == "") {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if tc.code != 0 && stdout != "" {
				t.Errorf("failed run wrote to stdout: %q", stdout)
			}
			if tc.code == 0 && !strings.HasPrefix(stdout, "vertices: 4   communities: 2 vs 2\nNMI       1.0000\n") {
				t.Errorf("identical partitions, relabeled: got\n%s", stdout)
			}
		})
	}
}
