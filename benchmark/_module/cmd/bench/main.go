// Command bench is the repository's one benchmark: four named workloads,
// end-to-end metrics from an untraced run, per-layer metrics and a span
// file from a traced one, and a correctness gate on both.
//
//	bench                                   all four workloads, untraced
//	bench -workload batch-rmat -seed 2      one workload
//	bench -trace 1                          per-layer metrics and span files
//	bench -out runs.jsonl                   also append each report to a runs file
//	bench -compare A.jsonl B.jsonl          set B against set A, bounds applied
//
// The last line of standard output is the result of the (last) workload as
// one JSON object with the keys correct, attempted, failed and metrics. The
// command exits non-zero when any run missed a correctness check. See
// ../../../README.md for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/benchmark/harness"
)

func main() {
	var (
		workload = flag.String("workload", "all", "one of batch-lfr, batch-rmat, oocore-rmat, serve-mixed, or all")
		seed     = flag.Int64("seed", 1, "benchmark seed; every generator seed derives from it")
		secs     = flag.Int("seconds", 20, "how long each run measures")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a span file")
		smoke    = flag.Bool("smoke", false, "toy sizes: exercises every path, measures nothing")
		out      = flag.String("out", "", "append each report to this runs file (JSON lines, machine line first)")
		workdir  = flag.String("workdir", ".bench_build/work", "directory for generated graphs and span files")
		compare  = flag.Bool("compare", false, "compare two runs files given as arguments: bench -compare A B")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two runs files"))
		}
		a, err := harness.ReadRuns(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := harness.ReadRuns(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed, unresolved := harness.PrintComparison(os.Stdout, a, b); regressed+unresolved > 0 {
			os.Exit(1)
		}
		return
	}

	// Four rank goroutines and two client goroutines on at most four
	// cores; the setting is part of the machine line.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	fmt.Printf("machine: %+v\n", harness.ThisMachine())

	names := []string{*workload}
	if *workload == "all" {
		names = harness.Workloads
	}
	sizes := harness.FullSizes
	if *smoke {
		sizes = harness.SmokeSizes
	}
	allCorrect := true
	for _, name := range names {
		rep, err := harness.Run(harness.Config{
			Workload: name, Seed: *seed, Window: time.Duration(*secs) * time.Second,
			Trace: *traceOn != 0, WorkDir: *workdir, Sizes: sizes, Smoke: *smoke,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if *out != "" {
			if err := harness.AppendRun(*out, rep); err != nil {
				fatal(err)
			}
		}
		printReport(rep)
		allCorrect = allCorrect && rep.Result.Correct
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// printReport prints every metric by name with its unit and, where it is a
// median or a percentile, the number of samples behind it.
func printReport(rep *harness.Report) {
	mode := "untraced"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Printf("\n== %s  seed %d  %d s  %s  membership %s\n", rep.Workload, rep.Seed, rep.Seconds, mode, rep.Hash)
	printMetrics := func(ms map[string]harness.Metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := ms[name]
			n := ""
			if c := rep.Samples[name]; c > 0 {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Printf("  %-36s %14.6g %-8s%s\n", name, m.Value, m.Unit, n)
		}
	}
	printMetrics(rep.Result.Metrics)
	fmt.Printf("  %-36s %14.6g %-8s  (%d of %d)\n", "failed_frac",
		float64(rep.Result.Failed)/float64(max(rep.Result.Attempted, 1)), "fraction", rep.Result.Failed, rep.Result.Attempted)
	if len(rep.Extra) > 0 {
		fmt.Println("  -- also measured on the way, not in this run's list:")
		printMetrics(rep.Extra)
	}
	if rep.SpanFile != "" {
		fmt.Printf("  spans written to %s\n", rep.SpanFile)
	}
	for _, n := range rep.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, f := range rep.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
