package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyOptions is the committed allowlist of TestNoDeadOptionFields:
// option structs whose exported fields no production file sets and that
// stay anyway, each with the reason. A row whose type is gone, or whose
// every field production code now sets, fails the test.
var testOnlyOptions = map[string]string{
	"repro/internal/comm.ChaosOptions": "chaos layer: the fault knobs the robustness, conformance and cross-matrix tests turn; no production world injects faults",
}

// isOptionStruct reports whether the named type declared under internal/
// is one the guard polices: a struct called *Options or *Config, or one of
// the two policy structs that are option structs in all but name.
func isOptionStruct(key string) bool {
	name := key[strings.LastIndex(key, ".")+1:]
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") ||
		key == "repro/internal/comm.Backoff" || key == "repro/internal/core.StopRule"
}

// namedKey names a struct type independently of which type-check produced
// it (see exportKey), or returns "" for an unnamed or non-struct type.
func namedKey(t types.Type) (string, *types.Struct) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", nil
	}
	named = named.Origin()
	return named.Obj().Pkg().Path() + "." + named.Obj().Name(), st
}

// fieldKey resolves a field selector x.F, promoted or not, to the
// "pkg.Type.F" of the struct that declares F, or "" when sel is not a
// field of a named struct.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	t := s.Recv()
	idx := s.Index()
	for i, fi := range idx {
		key, st := namedKey(t)
		if st == nil {
			return ""
		}
		f := st.Field(fi)
		if i == len(idx)-1 {
			return key + "." + f.Name()
		}
		t = f.Type()
	}
	return ""
}

// readsField reports whether expr reads the field key through the same base
// expression text as base.
func readsField(info *types.Info, expr ast.Node, key, base string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && fieldKey(info, sel) == key && types.ExprString(sel.X) == base {
			found = true
		}
		return !found
	})
	return found
}

// fieldsSet records in set every "pkg.Type.F" that pkg sets: through a
// keyed or positional composite literal, an assignment, an increment or a
// taken address (a flag bound to the field). Defaulting does not count: an
// assignment under an if whose condition reads the same field, or whose
// right-hand side reads it, only fills in a value nobody asked for.
func fieldsSet(pkg *Package, set map[string]bool) {
	info := pkg.Info
	target := func(e ast.Expr, stack []ast.Node, rhs []ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		key := fieldKey(info, sel)
		if key == "" {
			return
		}
		base := types.ExprString(sel.X)
		for _, r := range rhs {
			if readsField(info, r, key, base) {
				return
			}
		}
		for _, n := range stack {
			if ifs, ok := n.(*ast.IfStmt); ok && readsField(info, ifs.Cond, key, base) {
				return
			}
		}
		set[key] = true
	}
	for _, file := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch n := n.(type) {
			case *ast.CompositeLit:
				if key, st := namedKey(info.TypeOf(n)); st != nil {
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set[key+"."+kv.Key.(*ast.Ident).Name] = true
						} else {
							set[key+"."+st.Field(i).Name()] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs, stack, n.Rhs)
				}
			case *ast.IncDecStmt:
				target(n.X, stack, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X, stack, nil)
				}
			}
			stack = append(stack, n)
			return true
		})
	}
}

// TestNoDeadOptionFields is TestNoDeadExports for option fields: every
// exported field of an option struct declared under internal/ (see
// isOptionStruct) must be set somewhere in non-test code of the module or
// in the frozen benchmark harness, or its struct must be a row of
// testOnlyOptions. A knob only a test turns is a branch the program never
// takes: make it a constant, or delete it with the behaviour it selects.
func TestNoDeadOptionFields(t *testing.T) {
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

	set := make(map[string]bool)
	for _, pkg := range pkgs {
		fieldsSet(pkg, set)
	}

	declared := make(map[string]bool)
	var dead []string
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path, "/internal/") || strings.Contains(pkg.Path, "/testdata/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			key, st := namedKey(tn.Type())
			if st == nil || !isOptionStruct(key) {
				continue
			}
			declared[key] = true
			var unset []string
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[key+"."+f.Name()] {
					unset = append(unset, key+"."+f.Name())
				}
			}
			switch _, listed := testOnlyOptions[key]; {
			case listed && len(unset) == 0:
				t.Errorf("testOnlyOptions lists %s, but production code sets every field: drop the row", key)
			case !listed:
				dead = append(dead, unset...)
			}
		}
	}
	for key := range testOnlyOptions {
		if !declared[key] {
			t.Errorf("testOnlyOptions lists %s, which is no longer a declared option struct", key)
		}
	}
	if len(declared) < 8 {
		t.Errorf("found only %d option structs; the scan is missing code", len(declared))
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is an option field no non-test file sets: make it a constant, delete it, or add its struct to testOnlyOptions with the reason", key)
	}
}
