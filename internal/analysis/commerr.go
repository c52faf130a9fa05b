package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerCommErr flags discarded errors from communication operations. A
// comm error is never ignorable: it means a peer died or the transport
// failed, and a rank that shrugs it off proceeds with stale or missing
// data while the rest of the world waits for messages it will never send —
// turning a clean fast-failure into a silent wrong answer or a deadlock.
//
// Flagged forms, for Send/Recv and every collective:
//
//	comm.Barrier(c)            // call statement, result dropped
//	_ = c.Send(dst, tag, b)    // error assigned to blank
//	b, _ := c.Recv(src, tag)   // error position assigned to blank
//	go comm.Barrier(c)         // error unobservable in go/defer
//
// Close is deliberately not in the checked set: teardown errors after the
// final gather are routinely unactionable (mirroring common io.Closer
// practice). Everything else must be handled or explicitly waived with
// //lint:ignore commerr <reason>.
// The same obligation extends to the graph package's IO entry points
// (including PR 5's parallel and sharded variants): a loader that drops a
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
	"Barrier": true, "Bcast": true, "AllreduceBytes": true,
	"AllreduceFloat64Sum": true, "AllreduceInt64Sum": true,
	"AllreduceInt64Max": true, "AllreduceIterStats": true,
	"Allgather": true, "AllgatherInto": true, "Gather": true,
	"Alltoallv": true, "AlltoallvInto": true, "AlltoallvFunc": true,
	"RunWorld": true, "RunWorldStats": true, "DialTCPWorld": true,
	// Robustness layer: deadline-bounded receives, retry wrappers,
	// configurable dialing, and chaos worlds fail for the same reasons the
	// plain operations do, so their errors carry the same obligation.
	"RecvTimeout": true, "Retry": true,
	"DialTCPWorldConfig": true, "RunWorldChaos": true, "Drain": true,
	// Resident serving: the fused drift reduction behind every incremental
	// update batch. A dropped error here leaves the drift accounting
	// divergent across ranks, so the fallback decision splits.
	"AllreduceUpdateStats": true,
}

// graphIOOps are the graph package's IO entry points: every one reports
// malformed input or a failed sink through its error, and nothing else. A
// window decode error dropped mid-stream means a silently truncated
// partition; the typed-callee check pins these to the graph package, so
// io.ReadAll and friends are untouched. TestCommTablesMatchPackage fails on
// a name the graph package no longer has.
var graphIOOps = map[string]bool{
	"ReadFile": true, "ReadEdgeList": true, "ReadBinary": true, "ReadMETIS": true,
	"WriteEdgeList": true, "WriteMETIS": true, "WriteBinaryShardedV2": true,
	"OpenSharded": true, "OpenShardedFile": true, "OpenMmap": true,
	"ReadAll": true, "ReadWindow": true,
}

// graphPkgSuffix identifies the graph package by import-path suffix.
const graphPkgSuffix = "internal/graph"

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
// graph IO entry point, and which kind it is.
func commErrOp(info *types.Info, e ast.Expr) (string, string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	for name := range commErrOps {
		if isCommCallee(info, call, name) {
			return name, "comm", true
		}
	}
	for name := range graphIOOps {
		if isGraphIOCallee(info, call, name) {
			return name, "graph IO", true
		}
	}
	return "", "", false
}

// isGraphIOCallee reports whether call resolves to a checked function or
// method named name declared in the graph package. With missing type info
// it falls back to a syntactic `graph.<name>(...)` match (the Sharded
// methods have names distinctive enough not to need a method fallback).
func isGraphIOCallee(info *types.Info, call *ast.CallExpr, name string) bool {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name() == name && fn.Pkg() != nil &&
			(fn.Pkg().Path() == graphPkgSuffix || strings.HasSuffix(fn.Pkg().Path(), "/"+graphPkgSuffix))
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "graph"
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
	call := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	errPositions := errorResultPositions(p.Info, call, len(as.Lhs))
	for _, i := range errPositions {
		if i >= len(as.Lhs) {
			continue
		}
		if id, isIdent := as.Lhs[i].(*ast.Ident); isIdent && id.Name == "_" {
			p.Reportf(id.Pos(), "error of %s %s assigned to _: %s", kind, name, errWhy(kind))
		}
	}
}

// errorResultPositions returns the result indices of call with type error.
// If the signature cannot be resolved, the last position is assumed (every
// checked comm operation returns its error last).
func errorResultPositions(info *types.Info, call *ast.CallExpr, nLHS int) []int {
	if fn := calleeFunc(info, call); fn != nil {
		sig, ok := fn.Type().(*types.Signature)
		if ok {
			var out []int
			for i := 0; i < sig.Results().Len(); i++ {
				if named, isNamed := sig.Results().At(i).Type().(*types.Named); isNamed && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
					out = append(out, i)
				}
			}
			return out
		}
	}
	return []int{nLHS - 1}
}
