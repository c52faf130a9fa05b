package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// gengraph runs the command body and returns exit code, stdout and stderr.
func gengraph(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// setProcs sets GOMAXPROCS to n for the rest of t and restores the previous
// value when t ends.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
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
// a -truth file with one line per vertex. A .bin suffix is an edge list
// like any other unknown one.
func TestFormatsReadBackEqual(t *testing.T) {
	dir := t.TempDir()
	const spec = "lfr:n=300,mu=0.3,seed=9"
	var first []byte
	for i, name := range []string{"g.txt", "g.metis", "g.sbin", "g.bin"} {
		path := filepath.Join(dir, name)
		args := []string{"-gen", spec, "-o", path, "-shards", "5"}
		if i == 0 {
			args = append(args, "-truth", filepath.Join(dir, "truth.txt"))
		}
		code, stdout, stderr := gengraph(args...)
		if code != 0 || !strings.HasPrefix(stdout, "wrote "+path+": 300 vertices, ") || stderr != "" {
			t.Fatalf("%s: exit %d\nstdout: %s\nstderr: %s", name, code, stdout, stderr)
		}
		for _, procs := range []int{1, 3} {
			setProcs(t, procs)
			g, err := graph.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			enc := canonical(t, g)
			if i == 0 && procs == 1 {
				first = enc
			}
			if !bytes.Equal(enc, first) {
				t.Errorf("%s procs=%d: read back a different CSR than g.txt at GOMAXPROCS 1", name, procs)
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

// TestOneFilePerSpec pins that an rmat spec gives one file: written to
// .sbin, gengraph writes exactly the bytes of gen.StreamRMAT (the
// benchmark's own writer) at the same shard count, and the same spec
// written as a text edge list decodes to the same graph.
func TestOneFilePerSpec(t *testing.T) {
	dir := t.TempDir()
	const spec = "rmat:scale=9,ef=6,seed=4"
	sbin, txt, ref := filepath.Join(dir, "g.sbin"), filepath.Join(dir, "g.txt"), filepath.Join(dir, "ref.sbin")
	for _, path := range []string{sbin, txt} {
		if code, _, stderr := gengraph("-gen", spec, "-shards", "7", "-o", path); code != 0 {
			t.Fatalf("%s: exit %d: %s", path, code, stderr)
		}
	}
	cfg, err := gen.ParseRMATSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.StreamRMAT(cfg, ref, 7); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sbin)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gengraph's .sbin differs from gen.StreamRMAT's at the same shard count")
	}
	var decoded [][]byte
	for _, path := range []string{sbin, txt} {
		g, err := graph.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, canonical(t, g))
	}
	if !bytes.Equal(decoded[0], decoded[1]) {
		t.Fatal("the .sbin and the .txt of one spec decode to different graphs")
	}
}

// TestExitCodes pins usage errors (2, nothing written) apart from failed
// runs (1), with the message the user sees. A -truth the spec cannot fill
// is refused before anything is generated or written, in every format.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.txt")
	noTruth := func(ext string) string { return filepath.Join(dir, "no-truth"+ext) }
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
		absent string // a path the run must not create, with nothing on stdout
	}{
		{"no-gen", []string{"-o", out}, 2, "gengraph: -gen SPEC and -o FILE are required\n", ""},
		{"no-out", []string{"-gen", "rmat:scale=4"}, 2, "gengraph: -gen SPEC and -o FILE are required\n", ""},
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n", ""},
		{"bad-spec", []string{"-gen", "nosuchkind:n=3", "-o", out}, 1, "gengraph: ", ""},
		// No -stream switch: an rmat spec written to .sbin always streams.
		{"stream-flag-gone", []string{"-gen", "rmat:scale=4", "-stream", "-o", filepath.Join(dir, "x.sbin")}, 2,
			"flag provided but not defined: -stream\n", ""},
		{"no-truth", []string{"-gen", "rmat:scale=4", "-o", noTruth(".txt"), "-truth", noTruth(".truth")}, 1,
			"gengraph: generator \"rmat:scale=4\" has no planted ground truth\n", noTruth(".txt")},
		{"no-truth-sbin", []string{"-gen", "rmat:scale=4", "-o", noTruth(".sbin"), "-truth", noTruth(".truth")}, 1,
			"gengraph: generator \"rmat:scale=4\" has no planted ground truth\n", noTruth(".sbin")},
		{"no-truth-metis", []string{"-gen", "ba:n=50,m=2", "-o", noTruth(".metis"), "-truth", noTruth(".truth")}, 1,
			"gengraph: generator \"ba:n=50,m=2\" has no planted ground truth\n", noTruth(".metis")},
		// A directory cannot be created as a file: the -truth write must
		// fail the run, not leave exit 0 behind a missing truth file.
		{"truth-is-a-directory", []string{"-gen", "lfr:n=100,mu=0.2,seed=1", "-o", out, "-truth", dir}, 1, "gengraph: ", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := gengraph(tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if (tc.code == 2 || tc.absent != "") && stdout != "" {
				t.Errorf("refused run wrote to stdout: %q", stdout)
			}
			if tc.absent != "" {
				if _, err := os.Stat(tc.absent); !os.IsNotExist(err) {
					t.Errorf("refused run left %s behind (stat: %v)", tc.absent, err)
				}
			}
		})
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

// TestPlantedMatchesGenerators pins the kinds gengraph accepts -truth for
// to the generators: a kind is listed exactly when ParseSpec returns a
// planted membership for it.
func TestPlantedMatchesGenerators(t *testing.T) {
	for _, spec := range []string{
		"rmat:scale=4", "ba:n=50,m=2", "lfr:n=100,mu=0.2", "er:n=50,p=0.1",
		"sbm:blocks=2,size=10", "caveman:cliques=3,size=4",
	} {
		_, truth, err := gen.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		kind, _, _ := strings.Cut(spec, ":")
		if listed := slices.Contains(planted, kind); listed != (truth != nil) {
			t.Errorf("%s: listed as planted %v, ParseSpec returns a membership %v", kind, listed, truth != nil)
		}
	}
}
