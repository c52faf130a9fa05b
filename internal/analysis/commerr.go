package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerCommErr flags discarded errors from communication operations. A
// comm error is never ignorable: it means a peer died or the transport
// failed, and a rank that shrugs it off proceeds with stale or missing
// data while the rest of the world waits for messages it will never send —
// turning a clean fast-failure into a silent wrong answer or a deadlock.
//
// Flagged forms, for Send/Recv and every collective:
//
//	comm.Allgather(c, b)       // call statement, result dropped
//	_ = c.Send(dst, tag, b)    // error assigned to blank
//	b, _ := c.Recv(src, tag)   // error position assigned to blank
//	go comm.Allgather(c, b)    // error unobservable in go/defer
//
// Close is deliberately not in the checked set: teardown errors after the
// final gather are routinely unactionable (mirroring common io.Closer
// practice). Everything else must be handled or explicitly waived with
// //lint:ignore commerr <reason>.
// The same obligation extends to the graph package's IO entry points
// (including the parallel and sharded readers): a loader that drops a
// read error proceeds with a nil or truncated graph, and in an SPMD world
// where every rank ingests the same input, one rank silently failing to
// load produces divergent layouts and the identical deadlock-or-wrong-answer
// endgame.
var AnalyzerCommErr = &Analyzer{
	Name: "commerr",
	Doc: "flags comm operations and graph IO entry points whose error result is " +
		"discarded (statement call, blank assignment, go/defer)",
	Run: runCommErr,
}

// commErrOps are the checked operations: the point-to-point pair plus
// every world-level entry point that returns an error;
// TestCommTablesMatchPackage fails on a name the comm package no longer has.
var commErrOps = map[string]bool{
	"Send": true, "Recv": true,
	"AllreduceBytes": true, "AllreduceFloat64Sum": true,
	"AllreduceInt64Sum": true, "AllreduceIterStats": true,
	"Allgather": true, "Gather": true, "Alltoallv": true, "AlltoallvFunc": true,
	"RunWorld": true, "DialTCPWorld": true,
	// Robustness layer: retry wrappers and chaos worlds fail for the same
	// reasons the plain operations do, so their errors carry the same
	// obligation.
	"Retry": true, "RunWorldChaos": true, "Drain": true,
}

// graphIOOps are the graph package's IO entry points: every one reports
// malformed input or a failed sink through its error, and nothing else. A
// window decode error dropped mid-stream means a silently truncated
// partition; the typed-callee check pins these to the graph package, so
// io.ReadAll and friends are untouched. TestCommTablesMatchPackage fails on
// a name the graph package no longer has.
var graphIOOps = map[string]bool{
	"ReadFile": true, "ReadEdgeList": true, "ReadMETIS": true,
	"WriteEdgeList": true, "WriteMETIS": true, "WriteBinaryShardedV2": true,
	"OpenSharded": true, "OpenShardedFile": true,
	"ReadAll": true, "ReadWindow": true,
	"WriteMembership": true, "ReadMembership": true,
}

// graphPkgSuffix identifies the graph package by import-path suffix.
const graphPkgSuffix = "internal/graph"

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

func runCommErr(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if name, kind, ok := commErrOp(p.Info, st.X); ok {
					p.Reportf(st.Pos(), "result of %s %s discarded: %s", kind, name, errWhy(kind))
				}
			case *ast.GoStmt:
				if name, kind, ok := commErrOp(p.Info, st.Call); ok {
					p.Reportf(st.Pos(), "%s %s in go statement: its error is unobservable; collect it through the rank's return value instead", kind, name)
				}
			case *ast.DeferStmt:
				if name, kind, ok := commErrOp(p.Info, st.Call); ok {
					p.Reportf(st.Pos(), "%s %s in defer statement: its error is unobservable; call it explicitly and check the error", kind, name)
				}
			case *ast.AssignStmt:
				checkBlankCommErr(p, st)
			}
			return true
		})
	}
}

// errWhy explains the stakes of a dropped error per operation kind.
func errWhy(kind string) string {
	if kind == "graph IO" {
		return "a failed read or write means a missing or truncated graph and must be propagated"
	}
	return "a comm error means a dead peer or broken transport and must be propagated"
}

// commErrOp reports whether e is a call to a checked comm operation or
// graph IO entry point, which one, and which kind it is.
func commErrOp(info *types.Info, e ast.Expr) (string, string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	path, name := calleePkgFunc(info, call)
	switch {
	case isCommPath(path) && commErrOps[name]:
		return name, "comm", true
	case isPkgPath(path, graphPkgSuffix) && graphIOOps[name]:
		return name, "graph IO", true
	}
	return "", "", false
}

// checkBlankCommErr flags assignments that pipe a checked operation's error
// result into the blank identifier.
func checkBlankCommErr(p *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	name, kind, ok := commErrOp(p.Info, as.Rhs[0])
	if !ok {
		return
	}
	results := calleeFunc(p.Info, ast.Unparen(as.Rhs[0]).(*ast.CallExpr)).Type().(*types.Signature).Results()
	for i, lhs := range as.Lhs {
		id, isIdent := lhs.(*ast.Ident)
		if isIdent && id.Name == "_" && i < results.Len() && types.Identical(results.At(i).Type(), errorType) {
			p.Reportf(id.Pos(), "error of %s %s assigned to _: %s", kind, name, errWhy(kind))
		}
	}
}
