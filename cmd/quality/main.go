// Command quality compares two membership files (as written by
// cmd/dlouvain -o and cmd/gengraph -truth) with the paper's Table II
// measures.
//
//	quality -a detected.communities -b truth.communities
//
// Exit status: 0 scored, 1 a file is missing or malformed or the two
// disagree on the vertex count, 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/quality"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of the command: args are the raw command-line
// arguments (program name excluded), output goes to the given writers, and
// the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quality", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		aPath = fs.String("a", "", "first membership file (vertex community per line)")
		bPath = fs.String("b", "", "second membership file (typically the ground truth)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aPath == "" || *bPath == "" {
		fmt.Fprintln(stderr, "quality: -a FILE and -b FILE are required")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "quality:", err)
		return 1
	}
	var ms [2]graph.Membership
	for i, path := range []string{*aPath, *bPath} {
		f, err := os.Open(path)
		if err != nil {
			return fail(err)
		}
		ms[i], err = graph.ReadMembership(f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", path, err))
		}
	}
	a, b := ms[0], ms[1]
	s, err := quality.Compare(a, b)
	if err != nil {
		return fail(err)
	}
	v, err := quality.VMeasure(a, b)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "vertices: %d   communities: %d vs %d\n",
		len(a), a.NumCommunities(), b.NumCommunities())
	fmt.Fprintf(stdout, "NMI       %.4f\n", s.NMI)
	fmt.Fprintf(stdout, "F-measure %.4f\n", s.FMeasure)
	fmt.Fprintf(stdout, "NVD       %.4f (distance: lower is better)\n", s.NVD)
	fmt.Fprintf(stdout, "RI        %.4f\n", s.RI)
	fmt.Fprintf(stdout, "ARI       %.4f\n", s.ARI)
	fmt.Fprintf(stdout, "JI        %.4f\n", s.JI)
	fmt.Fprintf(stdout, "homogeneity %.4f  completeness %.4f  V %.4f\n",
		v.Homogeneity, v.Completeness, v.V)
	return 0
}
