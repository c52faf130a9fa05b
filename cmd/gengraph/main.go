// Command gengraph generates a synthetic graph from a generator spec and
// writes it to a file, optionally with its planted ground-truth membership.
//
// Usage:
//
//	gengraph -gen rmat:scale=14,ef=16,seed=1 -o web.txt
//	gengraph -gen lfr:n=10000,mu=0.3 -o social.sbin -truth social.communities
//	gengraph -gen rmat:scale=20 -o web.sbin -shards 16
//	gengraph -gen rmat:scale=14 -skew 0.7 -o skewed.txt
//	gengraph -gen rmat:scale=26 -o huge.sbin -shards 256 -stream
//
// -stream generates rmat directly into a sharded binary in bounded memory
// (one shard's arcs at a time), bit-identical to the in-RAM path; it
// requires an rmat spec and a .sbin output.
//
// Exit status: 0 written, 1 the generator or a write failed, 2 usage.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of the command: args are the raw command-line
// arguments (program name excluded), output goes to the given writers, and
// the return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		spec      = fs.String("gen", "", "generator spec (see internal/gen.ParseSpec)")
		outPath   = fs.String("o", "", "output path (.sbin = sharded binary, .metis = METIS, otherwise edge list)")
		truthPath = fs.String("truth", "", "write the planted membership here (LFR/SBM/caveman only)")
		shards    = fs.Int("shards", 16, "shard count for .sbin output (readers decode shards concurrently)")
		skew      = fs.Float64("skew", 0, "rmat only: quadrant skew in (0,1); 0.57 = Graph500 defaults (see gen.SetSkew)")
		stream    = fs.Bool("stream", false, "rmat + .sbin only: generate out of core, holding one shard's arcs at a time")
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
	if strings.HasSuffix(*outPath, ".bin") {
		return usage("the flat .bin format is read-only; write %s.sbin instead (every reader takes it)", strings.TrimSuffix(*outPath, ".bin"))
	}
	if *stream && !strings.HasSuffix(*outPath, ".sbin") {
		return usage("-stream writes sharded binaries; output %q must end in .sbin", *outPath)
	}
	genSpec := *spec
	if *skew != 0 {
		if !strings.HasPrefix(genSpec, "rmat") {
			return fail(fmt.Errorf("-skew applies only to rmat specs, got %q", genSpec))
		}
		sep := ","
		if !strings.Contains(genSpec, ":") {
			sep = ":"
		}
		genSpec = fmt.Sprintf("%s%sskew=%g", genSpec, sep, *skew)
	}
	if *stream {
		cfg, err := gen.ParseRMATSpec(genSpec)
		if err != nil {
			return fail(err)
		}
		if *truthPath != "" {
			return fail(fmt.Errorf("generator %q has no planted ground truth", *spec))
		}
		sg, err := gen.StreamRMAT(cfg, *outPath, *shards)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s: %d vertices, %d edges (%d shards, streamed)\n",
			*outPath, sg.Vertices, sg.Arcs/2, sg.Shards)
		return 0
	}

	g, truth, err := gen.ParseSpec(genSpec)
	if err != nil {
		return fail(err)
	}
	err = writeFile(*outPath, func(w io.Writer) error {
		switch {
		case strings.HasSuffix(*outPath, ".sbin"):
			// v2 run-codes the weights (falling back to v1 past 255 distinct
			// values); every reader negotiates the version by magic.
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
		if truth == nil {
			return fail(fmt.Errorf("generator %q has no planted ground truth", *spec))
		}
		err := writeFile(*truthPath, func(w io.Writer) error {
			bw := bufio.NewWriter(w)
			for v, c := range truth {
				fmt.Fprintf(bw, "%d %d\n", v, c) // a failed write sticks in bw; Flush reports it
			}
			return bw.Flush()
		})
		if err != nil {
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
