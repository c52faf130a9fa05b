// Package analysis is the project-specific static-analysis suite: a small
// framework (this file and load.go) plus one analyzer per file, each tuned
// to a bug class this codebase is actually exposed to. The algorithm is
// SPMD over hand-written collectives (internal/comm), so the most dangerous
// bugs are silent divergence bugs — a collective skipped on one rank, a
// reused message tag, a dropped transport error — that unit tests on happy
// paths do not reach.
//
// The suite is wired in three places so it gates for real:
//
//   - TestLintClean in this package, so plain `go test ./...` runs it;
//   - `go run ./cmd/lint ./...`, the standalone driver;
//   - scripts/check.sh (and CI), which runs build + vet + lint + race + fuzz.
//
// Scope: non-test files of every package in the module. Test files are
// exercised by `go vet` and the race detector instead; they intentionally
// use literal tags and stdout, and linting them would drown the signal.
//
// Suppression: a finding can be waived with a comment on the offending
// line, or on the line directly above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; suppressions without one are themselves
// findings. docs/STATIC_ANALYSIS.md documents every analyzer with real
// before/after examples from this repository.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in output and in //lint:ignore comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer catches.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass)
}

// Pass is one (analyzer, package) unit of work. Pkg and Info are always
// populated by the loader; analyzers may still fall back to syntactic
// heuristics for expressions the type checker could not resolve.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path of the package under analysis
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in a stable order: the PR 1
// syntactic checks first, then the dataflow-level determinism and
// allocation analyzers built on dataflow.go.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerCollectiveSym,
		AnalyzerTagConst,
		AnalyzerCommErr,
		AnalyzerRecvAlias,
		AnalyzerNoPrint,
		AnalyzerMapOrder,
		AnalyzerParForShare,
		AnalyzerNonDet,
		AnalyzerNoAlloc,
	}
}

// Run applies every analyzer to every package and returns the surviving
// findings (suppressed ones removed) sorted by position. Suppressions are
// accounted for: a //lint:ignore that waived nothing — its analyzer ran and
// produced no finding on the covered lines — is itself reported as stale,
// so waivers cannot outlive the code they excused.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	enabled := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		var raw []Finding
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				analyzer: a.Name,
				findings: &raw,
			}
			a.Run(pass)
		}
		for _, f := range raw {
			if sup.matches(f) {
				continue
			}
			out = append(out, f)
		}
		out = append(out, sup.malformed...)
		out = append(out, sup.stale(enabled)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// parseIgnoreDirective parses one comment as a //lint:ignore suppression.
// directive reports whether the comment is a lint:ignore at all; when it
// is, analyzer and reason carry its two mandatory fields and ok reports
// both were present. Fuzzed by FuzzIgnoreDirective.
func parseIgnoreDirective(text string) (analyzer, reason string, directive, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "lint:ignore") {
		return "", "", false, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
	if len(fields) < 2 {
		return "", "", true, false
	}
	return fields[0], strings.Join(fields[1:], " "), true, true
}

// suppRecord is one well-formed //lint:ignore comment. used is set when a
// finding of the named analyzer lands on a covered line; a record that ends
// a run unused is a stale suppression.
type suppRecord struct {
	pos      token.Position
	analyzer string
	used     bool
}

// suppressions maps (file, line) to the suppression records covering that
// line. A //lint:ignore comment waives findings on its own line and on the
// line immediately below it (the usual "comment above the statement"
// placement).
type suppressions struct {
	byLine    map[string]map[int][]*suppRecord
	records   []*suppRecord
	malformed []Finding
}

func collectSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]*suppRecord)}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				analyzer, _, directive, ok := parseIgnoreDirective(c.Text)
				if !directive {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if !ok {
					s.malformed = append(s.malformed, Finding{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				rec := &suppRecord{pos: pos, analyzer: analyzer}
				s.records = append(s.records, rec)
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*suppRecord)
					s.byLine[pos.Filename] = lines
				}
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					lines[ln] = append(lines[ln], rec)
				}
			}
		}
	}
	return s
}

func (s *suppressions) matches(f Finding) bool {
	for _, rec := range s.byLine[f.Pos.Filename][f.Pos.Line] {
		if rec.analyzer == f.Analyzer {
			rec.used = true
			return true
		}
	}
	return false
}

// stale reports the suppressions that waived nothing: the named analyzer
// was enabled this run (or does not exist at all) and produced no finding
// on the covered lines. Stale waivers are findings so they get cleaned up
// when the code they excused changes — an unused ignore otherwise silently
// masks the next real violation on that line. Enabled is the set of
// analyzer names that actually ran; suppressions for known-but-disabled
// analyzers are left alone (a partial run proves nothing about them).
func (s *suppressions) stale(enabled map[string]bool) []Finding {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Finding
	for _, rec := range s.records {
		if rec.used {
			continue
		}
		switch {
		case !known[rec.analyzer]:
			out = append(out, Finding{
				Pos:      rec.pos,
				Analyzer: "lint",
				Message:  fmt.Sprintf("suppression names unknown analyzer %q", rec.analyzer),
			})
		case enabled[rec.analyzer]:
			out = append(out, Finding{
				Pos:      rec.pos,
				Analyzer: "lint",
				Message:  fmt.Sprintf("stale suppression: %s no longer fires here; remove the //lint:ignore", rec.analyzer),
			})
		}
	}
	return out
}

// ---- shared helpers used by the analyzers ----

// commPkgSuffix and parPkgSuffix identify the communication package and the
// parallel-for package by import-path suffix, so the analyzers keep working
// if the module is ever renamed and so the negative fixtures under testdata
// (which import the real packages) match.
const (
	commPkgSuffix = "internal/comm"
	parPkgSuffix  = "internal/par"
)

// isPkgPath reports whether path is the package with import-path suffix.
func isPkgPath(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isCommPath reports whether path is the comm package.
func isCommPath(path string) bool { return isPkgPath(path, commPkgSuffix) }

// isParForCall reports whether call resolves to par.For, the one
// parallel-for of the ingest and partition pipelines.
func isParForCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "For" && fn.Pkg() != nil && isPkgPath(fn.Pkg().Path(), parPkgSuffix)
}

// calleeFunc resolves the called function or method of call, if the type
// checker resolved it. Returns nil for calls through unresolved or
// built-in identifiers.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if info == nil {
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}

// isCommCallee reports whether call resolves to a function or method named
// name declared in the comm package. With missing type info it falls back
// to a syntactic match: `comm.<name>(...)` for package functions, or any
// `x.<name>(...)` for the Send/Recv method names.
func isCommCallee(info *types.Info, call *ast.CallExpr, name string) bool {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name() == name && fn.Pkg() != nil && isCommPath(fn.Pkg().Path())
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	if x, ok := sel.X.(*ast.Ident); ok && x.Name == "comm" {
		return true
	}
	// Method-shaped fallback: only trust it for the point-to-point pair,
	// whose names are unlikely to collide inside this module.
	return name == "Send" || name == "Recv"
}
