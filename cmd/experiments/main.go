// Command experiments regenerates the paper's evaluation: every table and
// figure of Section V, printed as aligned text tables (see EXPERIMENTS.md
// for the mapping and the recorded results).
//
// Usage:
//
//	experiments                  # run everything, full profile
//	experiments -quick           # fast profile (small stand-ins, small p)
//	experiments -only fig6,fig9  # a subset
//
// Exit status: 0 ran, 1 an experiment failed, 2 usage (every -only name is
// checked before anything runs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/expt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of the command: args are the raw command-line
// arguments (program name excluded), the tables go to stdout, and the
// return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lanes := expt.Lanes()
	var names []string
	for _, l := range lanes {
		names = append(names, l.Name)
	}
	known := strings.Join(names, ",")
	var (
		quick  = fs.Bool("quick", false, "use the fast profile (small graphs, small processor counts)")
		only   = fs.String("only", "", "comma-separated experiments to run (default all): "+known)
		csvDir = fs.String("csv", "", "also write each table as a CSV file into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	if *only != "" {
		var picked []expt.Lane
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			i := slices.IndexFunc(lanes, func(l expt.Lane) bool { return l.Name == name })
			if i < 0 {
				fmt.Fprintf(stderr, "experiments: unknown experiment %q (known: %s)\n", name, known)
				return 2
			}
			picked = append(picked, lanes[i])
		}
		lanes = picked
	}
	profile := expt.Full()
	if *quick {
		profile = expt.Quick()
	}
	suite := expt.NewSuite(profile)
	for _, l := range lanes {
		t0 := time.Now()
		tables, err := l.Run(suite)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", l.Name, err))
		}
		for i, tbl := range tables {
			tbl.Fprint(stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, l.Name, i, tbl); err != nil {
					return fail(err)
				}
			}
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", l.Name, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}

// writeCSV stores one table as <dir>/<experiment>[-<index>].csv.
func writeCSV(dir, name string, idx int, tbl *expt.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := name
	if idx > 0 {
		file = fmt.Sprintf("%s-%d", name, idx)
	}
	f, err := os.Create(filepath.Join(dir, file+".csv"))
	if err != nil {
		return err
	}
	if err := tbl.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
