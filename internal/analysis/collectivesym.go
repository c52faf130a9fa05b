package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerCollectiveSym flags the classic SPMD deadlock pattern: a comm
// collective (Barrier, Bcast, Allreduce*, Allgather, Alltoallv, Gather)
// that is lexically nested inside rank-dependent control flow. Every rank
// must execute the same sequence of collectives in the same order; a
// collective reached by only some ranks leaves the others blocked in a
// point-to-point Recv forever — the hand-rolled transports have no timeout
// and no progress engine to detect it.
//
// Rank-dependence of a branch condition is a heuristic:
//
//   - the condition calls Rank() (on any receiver),
//   - it mentions an identifier whose value was derived from a Rank()
//     call anywhere in the enclosing function (one dataflow fixpoint,
//     so `r := c.Rank(); vr := (r + k) %% p; if vr == 0 {...}` is caught),
//   - or it mentions a name that by this codebase's convention holds a
//     rank: rank, rnk, myrank, vrank (case-insensitive; struct fields
//     such as s.rnk included).
//
// Branching on rank around point-to-point Send/Recv is fine (that is how
// the collectives themselves are built) and is not flagged. A genuinely
// intentional divergent collective — e.g. a subgroup collective guarded so
// every member still participates — can be waived with
// //lint:ignore collectivesym <reason>.
//
// The analyzer additionally flags collectives issued off the rank's main
// goroutine: inside a function literal launched with `go`, or inside a task
// literal handed to a worker pool's ParFor (internal/par's pool, behind
// internal/core's intra-rank kernels and the ingest and partition
// pipelines). The communicator matches messages by
// (source, tag) in program order on the rank's goroutine, so a collective
// from a concurrent goroutine races that matching even when every rank
// reaches it.
var AnalyzerCollectiveSym = &Analyzer{
	Name: "collectivesym",
	Doc: "flags comm collectives reachable only under rank-dependent control flow " +
		"(the SPMD deadlock pattern: some ranks enter the collective, the rest never do) " +
		"and collectives issued from goroutines or worker-pool tasks off the rank's main goroutine",
	Run: runCollectiveSym,
}

// collectiveNames are the comm package entry points that must be executed
// symmetrically by every rank of the world. TestCommTablesMatchPackage
// keeps the table equal to the package's exported surface.
var collectiveNames = map[string]bool{
	"Barrier":             true,
	"Bcast":               true,
	"AllreduceBytes":      true,
	"AllreduceFloat64Sum": true,
	"AllreduceInt64Sum":   true,
	"AllreduceInt64Max":   true,
	"Allgather":           true,
	"AllgatherInto":       true,
	"Alltoallv":           true,
	"AlltoallvInto":       true,
	"AlltoallvFunc":       true,
	"Gather":              true,
	// The per-iteration record reduction.
	"AllreduceIterStats": true,
	// Resident serving: every rank of a resident world must enter the
	// per-batch drift reduction, or the update call wedges with some ranks
	// inside the collective and the rest back in their command loop.
	"AllreduceUpdateStats": true,
}

// rankNames are identifiers assumed to hold a rank by naming convention.
var rankNames = map[string]bool{"rank": true, "rnk": true, "myrank": true, "vrank": true}

func runCollectiveSym(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			derived := rankDerivedObjects(p.Info, fd.Body)
			w := &symWalker{pass: p, derived: derived, handled: make(map[*ast.FuncLit]bool)}
			w.walkStmt(fd.Body, nil, "")
		}
	}
}

// rankDerivedObjects collects objects assigned (directly or transitively)
// from a Rank() call within body. One fixpoint loop over the assignments
// is enough for chains like r := c.Rank(); vr := (r - k + p) % p.
func rankDerivedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	isRanky := func(e ast.Expr) bool { return mentionsRank(info, e, derived) }
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || derived[obj] {
					continue
				}
				if isRanky(as.Rhs[i]) {
					derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

// mentionsRank reports whether expr contains a Rank() call, a
// rank-derived identifier, or a conventionally rank-named identifier.
func mentionsRank(info *types.Info, expr ast.Expr, derived map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Rank" {
				found = true
				return false
			}
		case *ast.Ident:
			if rankNames[lower(e.Name)] {
				found = true
				return false
			}
			if obj := info.Uses[e]; obj != nil && derived[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// symWalker walks statements carrying the innermost rank-dependent branch
// node (nil when the current path is symmetric) and the async context (empty
// when the code runs on the rank's main goroutine). handled marks function
// literals already walked with a specific async context, so the generic
// expression scan does not re-walk them with the wrong one.
type symWalker struct {
	pass    *Pass
	derived map[types.Object]bool
	handled map[*ast.FuncLit]bool
}

func (w *symWalker) divergentCond(e ast.Expr) bool {
	return e != nil && mentionsRank(w.pass.Info, e, w.derived)
}

func (w *symWalker) walkStmt(s ast.Stmt, div ast.Node, async string) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range st.List {
			w.walkStmt(sub, div, async)
		}
	case *ast.IfStmt:
		w.walkStmt(st.Init, div, async)
		w.checkExpr(st.Cond, div, async)
		inner := div
		if w.divergentCond(st.Cond) {
			inner = st
		}
		w.walkStmt(st.Body, inner, async)
		w.walkStmt(st.Else, inner, async)
	case *ast.SwitchStmt:
		w.walkStmt(st.Init, div, async)
		w.checkExpr(st.Tag, div, async)
		inner := div
		if w.divergentCond(st.Tag) {
			inner = st
		}
		for _, cc := range st.Body.List {
			c := cc.(*ast.CaseClause)
			caseDiv := inner
			for _, e := range c.List {
				w.checkExpr(e, div, async)
				if caseDiv == nil && w.divergentCond(e) {
					caseDiv = st
				}
			}
			for _, sub := range c.Body {
				w.walkStmt(sub, caseDiv, async)
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(st.Init, div, async)
		w.walkStmt(st.Assign, div, async)
		for _, cc := range st.Body.List {
			for _, sub := range cc.(*ast.CaseClause).Body {
				w.walkStmt(sub, div, async)
			}
		}
	case *ast.ForStmt:
		w.walkStmt(st.Init, div, async)
		w.checkExpr(st.Cond, div, async)
		inner := div
		if w.divergentCond(st.Cond) {
			inner = st
		}
		w.walkStmt(st.Post, inner, async)
		w.walkStmt(st.Body, inner, async)
	case *ast.RangeStmt:
		w.checkExpr(st.X, div, async)
		// Ranging over a rank-dependent collection runs the body a
		// rank-dependent number of times.
		inner := div
		if w.divergentCond(st.X) {
			inner = st
		}
		w.walkStmt(st.Body, inner, async)
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			for _, sub := range cc.(*ast.CommClause).Body {
				w.walkStmt(sub, div, async)
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt, div, async)
	case *ast.ExprStmt:
		w.checkExpr(st.X, div, async)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.checkExpr(e, div, async)
		}
		for _, e := range st.Lhs {
			w.checkExpr(e, div, async)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.checkExpr(e, div, async)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.checkExpr(e, div, async)
					}
				}
			}
		}
	case *ast.GoStmt:
		// The call's arguments are evaluated on the current goroutine; the
		// callee body runs concurrently with the rank's collective schedule.
		for _, arg := range st.Call.Args {
			w.checkExpr(arg, div, async)
		}
		if fl, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			w.handled[fl] = true
			w.walkStmt(fl.Body, div, "a goroutine started with go")
		} else {
			w.reportCollective(st.Call, div, "a goroutine started with go")
		}
	case *ast.DeferStmt:
		w.checkExpr(st.Call, div, async)
	case *ast.SendStmt:
		w.checkExpr(st.Chan, div, async)
		w.checkExpr(st.Value, div, async)
	case *ast.IncDecStmt:
		w.checkExpr(st.X, div, async)
	}
}

// isParForCall reports whether call invokes a ParFor method/function
// (internal/par.Pool.ParFor, the one worker-pool dispatch of the solver and
// the ingest and partition pipelines; matched by name so fixtures and future
// pools are covered without importing the package).
func isParForCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "ParFor"
	case *ast.Ident:
		return fun.Name == "ParFor"
	}
	return false
}

// checkExpr reports collective calls inside e when the surrounding path is
// rank-divergent or runs off the rank's main goroutine. Function literals
// are scanned with the context of their definition site (conservative: a
// literal built under a rank branch is usually invoked there too); literals
// passed to ParFor are scanned as worker-pool tasks.
func (w *symWalker) checkExpr(e ast.Expr, div ast.Node, async string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if w.handled[x] {
				return false
			}
			w.walkStmt(x.Body, div, async)
			return false
		case *ast.CallExpr:
			if isParForCall(x) {
				for _, arg := range x.Args {
					if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						w.handled[fl] = true
						w.walkStmt(fl.Body, div, "a worker-pool ParFor task")
					}
				}
			}
			w.reportCollective(x, div, async)
		}
		return true
	})
}

// reportCollective flags call if it is a comm collective reached in an
// asymmetric context: off the rank's main goroutine (async) or under
// rank-dependent control flow (div).
func (w *symWalker) reportCollective(call *ast.CallExpr, div ast.Node, async string) {
	for name := range collectiveNames {
		if !isCommCalleeFunc(w.pass.Info, call, name) {
			continue
		}
		switch {
		case async != "":
			w.pass.Reportf(call.Pos(),
				"comm.%s inside %s: collectives must run on the rank's main goroutine, in program order, or they race the communicator's message matching", name, async)
		case div != nil:
			w.pass.Reportf(call.Pos(),
				"comm.%s under rank-dependent control flow: every rank must reach each collective, or ranks outside this branch deadlock", name)
		}
		return
	}
}

// isCommCalleeFunc is isCommCallee restricted to package-level functions
// (the collectives are free functions, not methods), so a user-defined
// method that happens to be called Gather does not trip the analyzer when
// type information is present.
func isCommCalleeFunc(info *types.Info, call *ast.CallExpr, name string) bool {
	if fn := calleeFunc(info, call); fn != nil {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return false
		}
		return fn.Name() == name && fn.Pkg() != nil && isCommPath(fn.Pkg().Path())
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "comm"
}
