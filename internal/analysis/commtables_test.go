package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

// nonCollectives are the exported comm functions that take a Comm first
// and are NOT symmetric collectives: a decorator constructor and the two
// per-endpoint deadline helpers.
var nonCollectives = map[string]bool{
	"NewChaosComm": true, "SetRecvTimeout": true, "RecvTimeout": true,
}

// declaredNames returns every package-level function name of pkg and every
// method name declared on (or, for interfaces, in) its named types.
func declaredNames(pkg *Package) map[string]bool {
	names := make(map[string]bool)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			names[name] = true
		case *types.TypeName:
			ms := types.NewMethodSet(types.NewPointer(obj.Type()))
			if types.IsInterface(obj.Type()) {
				ms = types.NewMethodSet(obj.Type())
			}
			for i := 0; i < ms.Len(); i++ {
				names[ms.At(i).Obj().Name()] = true
			}
		}
	}
	return names
}

// TestCommTablesMatchPackage keeps the hand-written entry-point tables of
// collectivesym and commerr equal to what internal/comm really exports, in
// both directions: a row naming a function the package no longer has is
// dead, and an exported function taking a Comm that no table knows is a
// collective the analyzers would silently not police. commerr's graph IO
// table is held to the first direction against internal/graph.
func TestCommTablesMatchPackage(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join(loader.Root, "internal", "comm"))
	if err != nil {
		t.Fatalf("loading internal/comm: %v", err)
	}
	scope := pkg.Types.Scope()
	commType := scope.Lookup("Comm").Type()

	// Exported package functions, and every method name declared in the
	// package (commerr also lists Send/Recv/Retry/Drain).
	commFuncs := make(map[string]*types.Signature) // first parameter is Comm
	names := declaredNames(pkg)
	for _, name := range scope.Names() {
		if obj, ok := scope.Lookup(name).(*types.Func); ok {
			sig := obj.Type().(*types.Signature)
			if obj.Exported() && sig.Params().Len() > 0 && types.Identical(sig.Params().At(0).Type(), commType) {
				commFuncs[name] = sig
			}
		}
	}

	for name := range collectiveNames {
		if commFuncs[name] == nil {
			t.Errorf("collectiveNames lists %s, but internal/comm exports no such function taking a Comm", name)
		}
	}
	for name := range commErrOps {
		if !names[name] {
			t.Errorf("commErrOps lists %s, but internal/comm declares no such function or method", name)
		}
	}
	for name, sig := range commFuncs {
		if !collectiveNames[name] && !nonCollectives[name] {
			t.Errorf("internal/comm exports %s(Comm, ...) but it is neither in collectiveNames nor in nonCollectives", name)
		}
		res := sig.Results()
		if n := res.Len(); n > 0 && res.At(n-1).Type().String() == "error" && !commErrOps[name] {
			t.Errorf("internal/comm exports %s(Comm, ...) returning an error but commErrOps does not check it", name)
		}
	}
	for name := range nonCollectives {
		if commFuncs[name] == nil {
			t.Errorf("nonCollectives lists %s, but internal/comm exports no such function taking a Comm", name)
		}
	}

	graphPkg, err := loader.LoadDir(filepath.Join(loader.Root, "internal", "graph"))
	if err != nil {
		t.Fatalf("loading internal/graph: %v", err)
	}
	graphNames := declaredNames(graphPkg)
	for name := range graphIOOps {
		if !graphNames[name] {
			t.Errorf("graphIOOps lists %s, but internal/graph declares no such function or method", name)
		}
	}
}
