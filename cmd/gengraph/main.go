// Command gengraph generates a synthetic graph from a generator spec and
// writes it to a file, optionally with its planted ground-truth membership.
//
// Usage:
//
//	gengraph -gen rmat:scale=14,ef=16,seed=1 -o web.txt
//	gengraph -gen lfr:n=10000,mu=0.3 -o social.sbin -truth social.communities
//	gengraph -gen rmat:scale=20 -o web.sbin -shards 16
//	gengraph -gen rmat:scale=14,skew=0.7 -o skewed.txt
//	gengraph -gen rmat:scale=26 -o huge.sbin -shards 256
//
// An rmat spec written to .sbin goes through gen.StreamRMAT, which holds
// one shard's arcs at a time; every other spec and format is generated in
// RAM. Either way the graph is the one gen.ParseSpec builds.
//
// Exit status: 0 written, 1 the generator or a write failed, 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// planted lists the generator kinds that return a planted membership.
var planted = []string{"lfr", "sbm", "caveman"}

// run is the testable body of the command: args are the raw command-line
// arguments (program name excluded), output goes to the given writers, and
// the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		spec      = fs.String("gen", "", "generator spec (see internal/gen.ParseSpec)")
		outPath   = fs.String("o", "", "output path (.sbin = sharded binary, .metis = METIS, any other suffix = text edge list)")
		truthPath = fs.String("truth", "", "write the planted membership here (LFR/SBM/caveman only)")
		shards    = fs.Int("shards", 16, "shard count for .sbin output (readers decode shards concurrently)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "gengraph: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gengraph:", err)
		return 1
	}
	if *spec == "" || *outPath == "" {
		return usage("-gen SPEC and -o FILE are required")
	}
	kind, _, _ := strings.Cut(*spec, ":")
	if *truthPath != "" && !slices.Contains(planted, kind) {
		return fail(fmt.Errorf("generator %q has no planted ground truth", *spec))
	}
	if kind == "rmat" && strings.HasSuffix(*outPath, ".sbin") {
		cfg, err := gen.ParseRMATSpec(*spec)
		if err != nil {
			return fail(err)
		}
		sg, err := gen.StreamRMAT(cfg, *outPath, *shards)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s: %d vertices, %d edges\n", *outPath, sg.Vertices, sg.Arcs/2)
		return 0
	}

	g, truth, err := gen.ParseSpec(*spec)
	if err != nil {
		return fail(err)
	}
	err = writeFile(*outPath, func(w io.Writer) error {
		switch {
		case strings.HasSuffix(*outPath, ".sbin"):
			return graph.WriteBinaryShardedV2(w, g, *shards)
		case strings.HasSuffix(*outPath, ".metis"):
			return graph.WriteMETIS(w, g)
		default:
			return graph.WriteEdgeList(w, g)
		}
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "wrote %s: %d vertices, %d edges\n", *outPath, g.NumVertices(), g.NumEdges())

	if *truthPath != "" {
		if err := writeFile(*truthPath, func(w io.Writer) error { return graph.WriteMembership(w, truth) }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s: %d communities\n", *truthPath, truth.NumCommunities())
	}
	return 0
}

// writeFile creates path, hands it to write, and closes it; the first error
// of the three is the one returned.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
