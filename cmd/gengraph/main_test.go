package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// gengraph runs the command body and returns exit code, stdout and stderr.
func gengraph(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// canonical is g as the one-shard .sbin the production writer emits: two
// graphs are the same CSR, weights bit for bit, exactly when these are equal.
func canonical(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinaryShardedV2(&buf, g, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFormatsReadBackEqual writes one LFR graph in every format the command
// emits and requires graph.ReadFile to return the same CSR from each, plus
// a -truth file with one line per vertex.
func TestFormatsReadBackEqual(t *testing.T) {
	dir := t.TempDir()
	const spec = "lfr:n=300,mu=0.3,seed=9"
	var first []byte
	for i, name := range []string{"g.txt", "g.metis", "g.sbin"} {
		path := filepath.Join(dir, name)
		args := []string{"-gen", spec, "-o", path, "-shards", "5"}
		if i == 0 {
			args = append(args, "-truth", filepath.Join(dir, "truth.txt"))
		}
		code, stdout, stderr := gengraph(args...)
		if code != 0 || !strings.HasPrefix(stdout, "wrote "+path+": 300 vertices, ") || stderr != "" {
			t.Fatalf("%s: exit %d\nstdout: %s\nstderr: %s", name, code, stdout, stderr)
		}
		for _, workers := range []int{1, 3} {
			g, err := graph.ReadFile(path, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			enc := canonical(t, g)
			if i == 0 && workers == 1 {
				first = enc
			}
			if !bytes.Equal(enc, first) {
				t.Errorf("%s workers=%d: read back a different CSR than g.txt at one worker", name, workers)
			}
		}
	}
	truth, err := os.ReadFile(filepath.Join(dir, "truth.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(truth), "\n"); n != 300 || !strings.HasPrefix(string(truth), "0 ") {
		t.Errorf("truth file has %d lines, want one per vertex starting at vertex 0", n)
	}
}

// TestStreamEqualsInRAM pins the claim in the command's doc comment: the
// graph -stream writes is bit-identical to the in-RAM path's. The files are
// not — the streaming writer cuts shards where its buckets end, the in-RAM
// one where arcs balance — so the comparison is of what they decode to.
func TestStreamEqualsInRAM(t *testing.T) {
	dir := t.TempDir()
	var decoded [][]byte
	for _, extra := range [][]string{nil, {"-stream"}} {
		path := filepath.Join(dir, "g"+strings.Join(extra, "")+".sbin")
		args := append([]string{"-gen", "rmat:scale=9,ef=6,seed=4", "-shards", "7", "-o", path}, extra...)
		if code, _, stderr := gengraph(args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		g, err := graph.ReadFile(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, canonical(t, g))
	}
	if !bytes.Equal(decoded[0], decoded[1]) {
		t.Fatal("the in-RAM .sbin and the -stream one decode to different graphs")
	}
}

// TestExitCodes pins usage errors (2, nothing written) apart from failed
// runs (1), with the message the user sees.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.txt")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"flat-bin", []string{"-gen", "caveman:cliques=3,size=4", "-o", filepath.Join(dir, "x.bin")}, 2,
			"gengraph: the flat .bin format is read-only; write " + filepath.Join(dir, "x") + ".sbin instead (every reader takes it)\n"},
		{"no-gen", []string{"-o", out}, 2, "gengraph: -gen SPEC and -o FILE are required\n"},
		{"no-out", []string{"-gen", "rmat:scale=4"}, 2, "gengraph: -gen SPEC and -o FILE are required\n"},
		{"stream-not-sbin", []string{"-gen", "rmat:scale=4", "-stream", "-o", out}, 2,
			"gengraph: -stream writes sharded binaries; output \"" + out + "\" must end in .sbin\n"},
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n"},
		{"bad-spec", []string{"-gen", "nosuchkind:n=3", "-o", out}, 1, "gengraph: "},
		{"stream-not-rmat", []string{"-gen", "lfr:n=100", "-stream", "-o", filepath.Join(dir, "x.sbin")}, 1, "gengraph: "},
		{"no-truth", []string{"-gen", "rmat:scale=4", "-o", out, "-truth", filepath.Join(dir, "t")}, 1,
			"gengraph: generator \"rmat:scale=4\" has no planted ground truth\n"},
		// A directory cannot be created as a file: the -truth write must
		// fail the run, not leave exit 0 behind a missing truth file.
		{"truth-is-a-directory", []string{"-gen", "lfr:n=100,mu=0.2,seed=1", "-o", out, "-truth", dir}, 1, "gengraph: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := gengraph(tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if tc.code == 2 && stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
		})
	}
	if _, err := os.Stat(filepath.Join(dir, "x.bin")); err == nil {
		t.Error("-o x.bin was refused but the file exists")
	}
	// Every write to /dev/full fails with ENOSPC after a successful open:
	// the case where the truth lines used to be dropped behind exit 0.
	if _, err := os.Stat("/dev/full"); err == nil {
		code, _, stderr := gengraph("-gen", "lfr:n=100,mu=0.2,seed=1", "-o", out, "-truth", "/dev/full")
		if code != 1 || !strings.Contains(stderr, "no space left") {
			t.Errorf("-truth /dev/full: exit %d, stderr %q; want exit 1 and the write error", code, stderr)
		}
	}
}
