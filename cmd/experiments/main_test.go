package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// experiments runs the command body and returns exit code, stdout and
// stderr.
func experiments(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins usage errors (2) with the message the user sees. An
// unknown -only name is refused before anything runs: fig5, ahead of it in
// the list, prints nothing.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"bad-flag", []string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag\n"},
		{"unknown-only", []string{"-quick", "-only", "fig5,bogus"},
			"experiments: unknown experiment \"bogus\" (known: table1,fig5,table2,fig6,fig7,fig8,fig9,fig10,fig11,comm,gpu,converge,hubs)\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := experiments(tc.args...)
			if code != 2 || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit 2, stderr starting %q", code, stderr, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("refused run wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestQuickTable1 runs the cheapest experiment at the quick profile, with
// its CSV: Table I's stand-in sizes are exact, so its rows are pinned.
func TestQuickTable1(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := experiments("-quick", "-only", " table1 ", "-csv", dir)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, row := range []string{
		"Amazon   Frequently co-purchased products from Amazon         0.34M     0.93M     6000        24972       90\n",
		"YouTube  YouTube friendship network                           1.13M     2.99M     12000       35994       405\n",
		"LFR      A synthetic graph with built-in community structure  0.1M      1.6M      8000        31440       86\n",
	} {
		if !strings.Contains(stdout, row) {
			t.Errorf("stdout lacks the row %q:\n%s", row, stdout)
		}
	}
	if !strings.Contains(stdout, "\n[table1 completed in ") {
		t.Errorf("stdout lacks the completion line:\n%s", stdout)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csv, []byte("DBLP")) {
		t.Errorf("table1.csv lacks the DBLP row:\n%s", csv)
	}
}

// TestQuickHubs runs the hubs lane at the quick profile. Its numbers are
// functions of the graph and the options, so rows are pinned: on R-MAT,
// whose π-space 1D is within 11% of the mean arc load at p = 4, the default
// threshold (starred) keeps 2 of the floor's 56 hubs for W = 0.054; on LFR
// it keeps none, and the row equals 1D's.
func TestQuickHubs(t *testing.T) {
	code, stdout, stderr := experiments("-quick", "-only", "hubs")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, row := range []string{
		"1     4   floor       82     56    0.000  17.0           1.3       0.3        0.12       0.11167\n",
		"1     4   ε = 0.1 *   276    2     0.054  12.0           1.0       0.3        0.10       0.12032\n",
		"1     4   ε = 0.1 *   80     0     0.027  19.0           1.1       0.4        0.21       0.57950  0.8662\n",
		"1     4   ∞ (1D)      ∞      0     0.027  19.0           1.1       0.4        0.21       0.57950  0.8662\n",
	} {
		if !strings.Contains(stdout, row) {
			t.Errorf("stdout lacks the row %q:\n%s", row, stdout)
		}
	}
}
