package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// AnalyzerNoPrint keeps the library quiet: packages under internal/ must
// not write to process-global streams. The experiment harness and the
// commands own stdout (their tables ARE the product), so a stray
// fmt.Println deep in the core corrupts piped experiment output — and in
// a multi-rank world, p goroutines interleave their prints into garbage.
//
// Flagged inside internal/* (internal/trace itself excepted — it is the
// sanctioned sink, with an injectable writer):
//
//   - calls to fmt.Print, fmt.Printf, fmt.Println (implicit stdout);
//   - any import of the log package (implicit stderr, global state).
//
// Writer-explicit printing (fmt.Fprintf(w, ...)) is fine — that is the
// pattern the experiment tables use. Diagnostics wanted at runtime go
// through trace.Eventf, whose sink tests and operators install.
var AnalyzerNoPrint = &Analyzer{
	Name: "noprint",
	Doc: "forbids fmt.Print* and the log package in internal/* library code " +
		"(route diagnostics through internal/trace, whose writer is injectable)",
	Run: runNoPrint,
}

// printFuncs are the fmt functions that write to process-global stdout.
var printFuncs = map[string]bool{"Print": true, "Printf": true, "Println": true}

func runNoPrint(p *Pass) {
	if !strings.Contains(p.Path, "/internal/") || strings.HasSuffix(p.Path, "/internal/trace") {
		return
	}
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "log" {
				p.Reportf(imp.Pos(), "log package in library code: it writes to a process-global stream; route diagnostics through internal/trace")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !printFuncs[sel.Sel.Name] {
				return true
			}
			if !isFmtPkg(p.Info, sel) {
				return true
			}
			p.Reportf(call.Pos(), "fmt.%s writes to stdout from library code: with p ranks this interleaves into garbage and corrupts piped output; take an io.Writer or emit a trace.Eventf event", sel.Sel.Name)
			return true
		})
	}
}

// isFmtPkg reports whether sel's qualifier is the fmt package.
func isFmtPkg(info *types.Info, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if info != nil {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path() == "fmt"
		}
	}
	return id.Name == "fmt"
}
