// Command lint runs the project's static-analysis suite (internal/analysis)
// over the module. It is one of the three entry points that gate the SPMD
// correctness rules — the others are TestLintClean (plain `go test ./...`)
// and scripts/check.sh (build + vet + lint + race + fuzz).
//
// Usage:
//
//	go run ./cmd/lint ./...           # whole module
//	go run ./cmd/lint ./internal/comm ./cmd/dlouvain
//	go run ./cmd/lint -doc            # describe the analyzers
//
// Exit status: 0 clean, 1 findings, 2 operational error. Findings are
// printed one per line as file:line:col: [analyzer] message; a finding can
// be waived in source with `//lint:ignore <analyzer> <reason>` on or above
// the offending line (see docs/STATIC_ANALYSIS.md). A waiver that no longer
// waives anything is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

// run is the testable body of the command: args are the raw command-line
// arguments (flags included, program name excluded), output goes to the
// given writers, and the return value is the process exit code — 0 clean,
// 1 findings, 2 operational error (bad flag, unloadable package).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	doc := fs.Bool("doc", false, "print the analyzer catalogue and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lint [-doc] [package-dir|./...]...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *doc {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		return operr(stderr, err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return operr(stderr, err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return operr(stderr, err)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*analysis.Package
	for _, pat := range patterns {
		switch pat {
		case "./...", "...", "all":
			all, err := loader.LoadAll()
			if err != nil {
				return operr(stderr, err)
			}
			pkgs = append(pkgs, all...)
		default:
			pkg, err := loader.LoadDir(pat)
			if err != nil {
				return operr(stderr, err)
			}
			pkgs = append(pkgs, pkg)
		}
	}

	findings := analysis.Run(pkgs, analysis.All())
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}

// operr reports an operational error and returns the exit code for it.
func operr(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "lint:", err)
	return 2
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
