package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerMapOrder flags the canonical cross-rank divergence bug: data that
// leaves a map in iteration order and reaches an order-sensitive sink. Go
// randomizes map iteration on purpose, so any byte stream, message, or
// floating-point sum built in that order differs run to run and rank to
// rank — exactly the silent nondeterminism the bit-identical contract
// (the goldens, the transport conformance suite) exists to rule
// out, but can only catch on graphs the tests happen to cover.
//
// The analyzer runs a small taint walk per function, in source order:
//
//   - ranging over a map (or over maps.Keys/Values/All) opens a map-order
//     context; a slice appended to inside that context is tainted, and
//     ranging over a tainted slice reopens the context;
//   - a sort.*/slices.Sort* call over a tainted value launders it — that is
//     the sanctioned fix, and the idiom the codebase already uses
//     (collect keys → sort.Ints → iterate);
//   - inside a context, three sinks are flagged: wire.Buffer Put* encodes,
//     comm sends and collectives, and compound float accumulation;
//   - writes indexed by the loop key (acc[k] = v, m2[k]++) are exempt:
//     keyed stores build a keyed structure whose content does not depend
//     on visit order.
//
// The walk is intraprocedural; an encode buried behind a helper call is
// out of reach and must be caught at the helper's own map range.
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags map-iteration order reaching an order-sensitive sink (wire encode, " +
		"comm send/collective, float accumulation) without an intervening deterministic sort",
	Run: runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &moWalker{pass: p, tainted: make(map[types.Object]bool)}
			w.walkStmt(fd.Body, nil)
		}
	}
}

// moCtx is one open map-order context: the body of a range whose visit
// order is nondeterministic.
type moCtx struct {
	what    string                // human description for the finding message
	exempt  map[types.Object]bool // loop keys: writes indexed by these are keyed, not ordered
	sources map[types.Object]bool // loop variables carrying the iteration order
}

type moWalker struct {
	pass    *Pass
	tainted map[types.Object]bool
}

func (w *moWalker) walkStmt(s ast.Stmt, ctx *moCtx) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range st.List {
			w.walkStmt(sub, ctx)
		}
	case *ast.IfStmt:
		w.walkStmt(st.Init, ctx)
		w.checkExpr(st.Cond, ctx)
		w.walkStmt(st.Body, ctx)
		w.walkStmt(st.Else, ctx)
	case *ast.ForStmt:
		w.walkStmt(st.Init, ctx)
		w.checkExpr(st.Cond, ctx)
		w.walkStmt(st.Post, ctx)
		w.walkStmt(st.Body, ctx)
	case *ast.RangeStmt:
		w.checkExpr(st.X, ctx)
		inner := w.rangeCtx(st, ctx)
		if inner == nil {
			inner = ctx // deterministic loop nested in an outer context
		}
		w.walkStmt(st.Body, inner)
	case *ast.SwitchStmt:
		w.walkStmt(st.Init, ctx)
		w.checkExpr(st.Tag, ctx)
		for _, cc := range st.Body.List {
			for _, sub := range cc.(*ast.CaseClause).Body {
				w.walkStmt(sub, ctx)
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(st.Init, ctx)
		w.walkStmt(st.Assign, ctx)
		for _, cc := range st.Body.List {
			for _, sub := range cc.(*ast.CaseClause).Body {
				w.walkStmt(sub, ctx)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			for _, sub := range cc.(*ast.CommClause).Body {
				w.walkStmt(sub, ctx)
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt, ctx)
	case *ast.ExprStmt:
		w.checkExpr(st.X, ctx)
	case *ast.AssignStmt:
		w.handleAssign(st, ctx)
	case *ast.IncDecStmt:
		w.checkExpr(st.X, ctx)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.checkExpr(e, ctx)
					}
				}
			}
		}
	case *ast.GoStmt:
		for _, arg := range st.Call.Args {
			w.checkExpr(arg, ctx)
		}
		if fl, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			w.walkStmt(fl.Body, ctx)
		}
	case *ast.DeferStmt:
		w.checkExpr(st.Call, ctx)
	case *ast.SendStmt:
		w.checkExpr(st.Chan, ctx)
		w.checkExpr(st.Value, ctx)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.checkExpr(e, ctx)
		}
	}
}

// rangeCtx decides whether st iterates in a nondeterministic order and, if
// so, builds the context for its body. nil means the loop is deterministic.
func (w *moWalker) rangeCtx(st *ast.RangeStmt, outer *moCtx) *moCtx {
	info := w.pass.Info
	what := ""
	keyExempt := false
	if t := info.TypeOf(st.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			what = "map iteration"
			keyExempt = true
		}
	}
	if what == "" {
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && isMapsIterCall(info, call) {
			what = "map-iterator (maps.Keys/Values/All) iteration"
			keyExempt = true
		}
	}
	if what == "" && exprMentionsObj(info, st.X, w.tainted) {
		what = "iteration over a slice collected in map order"
	}
	if what == "" {
		return nil
	}
	ctx := &moCtx{
		what:    what,
		exempt:  make(map[types.Object]bool),
		sources: make(map[types.Object]bool),
	}
	if outer != nil {
		for o := range outer.sources {
			ctx.sources[o] = true
		}
	}
	bind := func(e ast.Expr, exempt bool) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := objOf(info, id); obj != nil {
			ctx.sources[obj] = true
			if exempt {
				ctx.exempt[obj] = true
			}
		}
	}
	if st.Key != nil {
		bind(st.Key, keyExempt)
	}
	if st.Value != nil {
		bind(st.Value, false)
	}
	return ctx
}

// handleAssign checks the statement's expressions for sinks, then updates
// the taint set: a destination assigned from order-carrying data becomes
// tainted, a destination assigned a freshly sorted value becomes clean, and
// key-indexed stores pass untouched.
func (w *moWalker) handleAssign(st *ast.AssignStmt, ctx *moCtx) {
	info := w.pass.Info
	for _, rhs := range st.Rhs {
		w.checkExpr(rhs, ctx)
	}
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		switch {
		case len(st.Lhs) == len(st.Rhs):
			rhs = st.Rhs[i]
		case len(st.Rhs) == 1:
			rhs = st.Rhs[0]
		}
		obj := taintTarget(info, lhs)
		if obj == nil {
			continue
		}
		_, indexes, _ := analyzeWriteTarget(info, lhs)
		keyed := false
		if ctx != nil {
			for _, idx := range indexes {
				if exprMentionsObj(info, idx, ctx.exempt) {
					keyed = true
					break
				}
			}
		}
		if ctx != nil && !keyed && isFloatAccum(info, st, lhs) {
			w.pass.Reportf(lhs.Pos(),
				"float accumulation inside %s: float addition is order-dependent and the visit order is nondeterministic; accumulate over sorted keys instead", ctx.what)
		}
		if rhs != nil {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if isSortCall(info, call) {
					// e.g. keys = slices.Sorted(maps.Keys(m)): the result
					// carries a deterministic order.
					delete(w.tainted, obj)
					continue
				}
				if isMapsIterCall(info, call) {
					// A stored map iterator carries map order wherever it is
					// consumed.
					w.tainted[obj] = true
					continue
				}
			}
		}
		ordered := exprMentionsObj(info, rhs, w.tainted) ||
			(ctx != nil && exprMentionsObj(info, rhs, ctx.sources))
		switch {
		case ordered && !keyed:
			w.tainted[obj] = true
		case !ordered && st.Tok == token.ASSIGN && len(indexes) == 0:
			// Plain overwrite with order-free data launders the name.
			delete(w.tainted, obj)
		}
	}
}

// checkExpr scans e for sink calls (reported when ctx is open) and for sort
// calls (which launder their arguments wherever they appear).
func (w *moWalker) checkExpr(e ast.Expr, ctx *moCtx) {
	if e == nil {
		return
	}
	info := w.pass.Info
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A literal defined here usually runs here (same convention as
			// collectivesym): scan its body under the current context.
			w.walkStmt(x.Body, ctx)
			return false
		case *ast.CallExpr:
			if isSortCall(info, x) {
				for _, arg := range x.Args {
					w.untaintExpr(arg)
				}
				return true
			}
			if ctx == nil {
				return true
			}
			if fn := calleeFunc(info, x); fn != nil && fn.Pkg() != nil {
				path := fn.Pkg().Path()
				if strings.HasPrefix(fn.Name(), "Put") &&
					(path == "internal/wire" || strings.HasSuffix(path, "/internal/wire")) {
					w.pass.Reportf(x.Pos(),
						"wire encode (%s) inside %s: the visit order is nondeterministic and leaks into the byte stream; collect and sort keys before encoding", fn.Name(), ctx.what)
					return true
				}
			}
			for name := range collectiveNames {
				if isCommCalleeFunc(info, x, name) {
					w.pass.Reportf(x.Pos(),
						"comm.%s inside %s: the visit order is nondeterministic, so ranks issue collectives in divergent order; sort first", name, ctx.what)
					return true
				}
			}
			if isCommCallee(info, x, "Send") {
				w.pass.Reportf(x.Pos(),
					"comm send inside %s: messages leave in nondeterministic order; sort the iteration first", ctx.what)
			}
		}
		return true
	})
}

// untaintExpr removes every object mentioned in e from the taint set (the
// expression was just handed to a deterministic sort).
func (w *moWalker) untaintExpr(e ast.Expr) {
	info := w.pass.Info
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				delete(w.tainted, obj)
			}
		}
		return true
	})
}

// taintTarget resolves the object that carries taint for a destination: the
// named container at the top of the chain (the field object for s.keys, the
// slice/map object for m[k] or xs[i:j]).
func taintTarget(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return nil
		}
		return objOf(info, x)
	case *ast.SelectorExpr:
		return objOf(info, x.Sel)
	case *ast.IndexExpr:
		return taintTarget(info, x.X)
	case *ast.SliceExpr:
		return taintTarget(info, x.X)
	case *ast.StarExpr:
		return taintTarget(info, x.X)
	}
	return nil
}

// isFloatAccum reports whether st is a compound float accumulation
// (+=, -=, *=, /=) into lhs.
func isFloatAccum(info *types.Info, st *ast.AssignStmt, lhs ast.Expr) bool {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	t := info.TypeOf(lhs)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
