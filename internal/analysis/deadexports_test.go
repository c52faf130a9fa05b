package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports is the committed allowlist of TestNoDeadExports: exported
// functions and methods under internal/ that no production file calls and
// that stay anyway, each with the reason. A row whose name is gone, or that
// production code has started calling, fails the test, so the list cannot
// outlive what it excuses.
var testOnlyExports = map[string]string{
	// API that exists for tests.
	"repro/internal/analysis.NoallocFuncs":      "lists a package's //perf:noalloc functions for the TestNoallocAnnotations driver tables of wire and core",
	"repro/internal/comm.ChaosComm.Faults":      "chaos layer: injected-fault counters the robustness and conformance tests assert on",
	"repro/internal/comm.RunWorldChaos":         "chaos layer: the seeded fault-injection world of the chaos matrix and core's chaos tests",
	"repro/internal/comm.TransientError.Unwrap": "reached by errors.Is/As through their unnamed Unwrap interface; the conformance suite checks the chain",
	"repro/internal/graph.Membership.Sizes":     "community-size histogram the LFR bounds test of internal/gen reads",
	"repro/internal/partition.Census.TotalArcs": "arc-conservation check of the partition tests",
	"repro/internal/loadgen.Replay":             "deterministic replay of a plan, pinned by TestReplayDeterministic",
	"repro/internal/loadgen.Run":                "the timed run of a plan, with the latency percentiles TestRunClosedLoop checks",
	"repro/internal/trace.Breakdown.Total":      "phase sum that core's TestStage1TimingsPopulated checks is positive",
}

// exportKey names a function or method independently of which type-check
// produced the object: a use in another package resolves to an object read
// from export data, not to the one the declaring package's source check made.
func exportKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // interface method
		}
		key += named.Obj().Name() + "."
	}
	return key + fn.Name()
}

// TestNoDeadExports generalises TestCommTablesMatchPackage's use of the
// loader from one table to the whole tree: every exported function or
// method declared under internal/ must be used by a non-test file somewhere
// in the module (its own package counts; its own declaration does not), be
// reached through an interface its receiver implements, or be a row of
// testOnlyExports. The frozen benchmark harness is loaded as one more
// package of callers, so the names it links are live by construction rather
// than by a hand-kept list. A twin that lost its last caller, or a codec
// that never had one, then fails tier-1 instead of waiting for a reviewer
// to grep for it.
func TestNoDeadExports(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	harness, err := loader.LoadDir(filepath.Join(loader.Root, "benchmark", "_module", "harness"))
	if err != nil {
		t.Fatalf("loading the benchmark harness: %v", err)
	}
	pkgs = append(pkgs, harness)

	used := make(map[string]bool)
	ifaces := make(map[*types.Interface]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[exportKey(fn)] = true
			}
		}
		// Every interface type written anywhere in the module, named or
		// inline, plus the standard-library ones a parameter or conversion
		// mentions: a method that satisfies one is called through it.
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}
	// Interfaces the standard library calls methods through without this
	// module ever naming them.
	for _, src := range []struct{ pkg, name string }{{"fmt", "Stringer"}, {"sort", "Interface"}, {"flag", "Value"}} {
		p, err := loader.imp.Import(src.pkg)
		if err != nil {
			t.Fatalf("importing %s: %v", src.pkg, err)
		}
		ifaces[p.Scope().Lookup(src.name).Type().Underlying().(*types.Interface)] = true
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true

	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(recv, it) {
					return true
				}
			}
		}
		return false
	}

	declared := make(map[string]bool)
	var dead []string
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path, "/internal/") || strings.Contains(pkg.Path, "/testdata/") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				key := exportKey(fn)
				declared[key] = true
				switch {
				case used[key]:
					if _, listed := testOnlyExports[key]; listed {
						t.Errorf("testOnlyExports lists %s, but production code calls it: drop the row", key)
					}
				case fd.Recv != nil && viaInterface(fn):
				case testOnlyExports[key] != "":
				default:
					dead = append(dead, key)
				}
			}
		}
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which is no longer declared", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test file uses it: delete it, unexport it, or add it to testOnlyExports with the reason", key)
	}
}
