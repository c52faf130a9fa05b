package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerParForShare enforces the worker-pool write discipline that keeps
// parallel sweeps bit-identical to their serial counterparts: a ParFor
// kernel (or a plain `go` closure) may write only state it owns — variables
// it declares itself, or slots of captured slices indexed by a value
// derived from the kernel's chunk/worker parameters. Anything else is a
// data race or a nondeterministic combine, the exact class
// TestWorkerDeterminism can only catch on graphs it happens to run
// (Halappanavar et al.'s hazard of parallelizing vertex sweeps).
//
// Kernels are found three ways, package-wide:
//
//   - function literals passed directly to a ParFor call;
//   - function literals assigned to a variable or field that is later
//     handed to ParFor (the stage-kernel idiom of internal/core,
//     where newStage builds s.hubKernel and sweep dispatches it);
//   - function literals launched with `go`.
//
// For each kernel, the kernel's parameters seed a derived-value fixpoint
// (closeOverAssignments), so `lo, hi := chunkSpan(n, nc, chunk)` makes lo
// and hi chunk-derived and writes to s.props[i] with i in [lo, hi) pass.
// Captured-map inserts are always flagged: concurrent map writes race
// regardless of key.
var AnalyzerParForShare = &Analyzer{
	Name: "parforshare",
	Doc: "flags ParFor kernels and go-closures writing captured variables, maps, or " +
		"slice elements not indexed by a value derived from the kernel's chunk/worker parameters",
	Run: runParForShare,
}

// kernelUnit is one function literal analyzed under kernel write rules.
type kernelUnit struct {
	lit  *ast.FuncLit
	desc string
}

func runParForShare(p *Pass) {
	kernelNames := make(map[string]bool)
	seen := make(map[*ast.FuncLit]bool)
	var units []kernelUnit
	add := func(fl *ast.FuncLit, desc string) {
		if !seen[fl] {
			seen[fl] = true
			units = append(units, kernelUnit{fl, desc})
		}
	}
	// Pass 1: direct literal kernels, names dispatched to ParFor, and go
	// closures.
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if !isParForCall(x) {
					return true
				}
				for _, arg := range x.Args {
					switch a := ast.Unparen(arg).(type) {
					case *ast.FuncLit:
						add(a, "ParFor kernel")
					case *ast.Ident:
						kernelNames[a.Name] = true
					case *ast.SelectorExpr:
						kernelNames[a.Sel.Name] = true
					}
				}
			case *ast.GoStmt:
				if fl, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
					add(fl, "goroutine closure")
				}
			}
			return true
		})
	}
	// Pass 2: literals assigned (anywhere in the package) to a name that
	// pass 1 saw dispatched to ParFor — internal/core builds its kernels in
	// newStage and invokes them from other files.
	if len(kernelNames) > 0 {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					fl, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit)
					if !ok {
						continue
					}
					name := ""
					switch l := ast.Unparen(lhs).(type) {
					case *ast.Ident:
						name = l.Name
					case *ast.SelectorExpr:
						name = l.Sel.Name
					}
					if kernelNames[name] {
						add(fl, "ParFor kernel")
					}
				}
				return true
			})
		}
	}
	for _, u := range units {
		checkKernelWrites(p, u)
	}
}

func checkKernelWrites(p *Pass, u kernelUnit) {
	info := p.Info
	derived := make(map[types.Object]bool)
	if u.lit.Type.Params != nil {
		for _, field := range u.lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					derived[obj] = true
				}
			}
		}
	}
	closeOverAssignments(info, u.lit.Body, derived)
	ast.Inspect(u.lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkKernelWrite(p, u, derived, lhs)
			}
		case *ast.IncDecStmt:
			checkKernelWrite(p, u, derived, st.X)
		}
		return true
	})
}

func checkKernelWrite(p *Pass, u kernelUnit, derived map[types.Object]bool, lhs ast.Expr) {
	info := p.Info
	root, indexes, mapWrite := analyzeWriteTarget(info, lhs)
	if root == nil || root.Name == "_" {
		return
	}
	obj := objOf(info, root)
	if obj == nil {
		return
	}
	if declaredWithin(obj, u.lit) {
		return // the kernel's own state
	}
	target := types.ExprString(lhs)
	if mapWrite {
		p.Reportf(lhs.Pos(),
			"%s inserts into captured map %s: concurrent map writes race regardless of key; collect per-chunk and merge on the caller", u.desc, target)
		return
	}
	if len(indexes) == 0 {
		p.Reportf(lhs.Pos(),
			"%s writes captured variable %s: kernels run concurrently, so writes must go to per-chunk or per-worker state combined by the caller in chunk order", u.desc, target)
		return
	}
	for _, idx := range indexes {
		if exprMentionsObj(info, idx, derived) {
			return // slot is a function of the kernel's parameters
		}
	}
	p.Reportf(lhs.Pos(),
		"%s writes %s at an index not derived from the kernel's chunk/worker parameters: overlapping slots race and combine nondeterministically", u.desc, target)
}
