package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module (or of the
// negative-fixture tree under testdata).
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks module packages from source. Imports —
// both standard-library and intra-module — are resolved from compiler
// export data located with `go list -export`, which works offline with
// nothing beyond the Go toolchain itself (the module has no external
// dependencies and must stay buildable without network access).
type Loader struct {
	Fset    *token.FileSet
	Root    string // module root (directory containing go.mod)
	ModPath string // module path from go.mod

	mu      sync.Mutex
	exports map[string]string // import path -> export-data file
	imp     types.Importer
}

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader prepares a loader for the module rooted at root. It runs
// `go list -export -deps ./...` once to map every import path the module
// can reach to its export-data file.
func NewLoader(root string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		Root:    root,
		ModPath: modPath,
		exports: make(map[string]string),
	}
	if err := l.listExports("-deps", "./..."); err != nil {
		return nil, err
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookupExport)
	return l, nil
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// listExports runs `go list -export -json` with the given arguments and
// records the ImportPath -> Export mapping.
func (l *Loader) listExports(args ...string) error {
	cmd := exec.Command("go", append([]string{"list", "-export", "-json=ImportPath,Export"}, args...)...)
	cmd.Dir = l.Root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("analysis: go list: %v", err)
	}
	dec := json.NewDecoder(out)
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("analysis: go list output: %v", err)
		}
		if p.Export != "" {
			l.mu.Lock()
			l.exports[p.ImportPath] = p.Export
			l.mu.Unlock()
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return nil
}

// lookupExport serves export data to the gc importer, fetching paths that
// were not in the initial `./...` listing (e.g. a stdlib package imported
// only by a testdata fixture) on demand.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		if err := l.listExports("--", path); err != nil {
			return nil, err
		}
		l.mu.Lock()
		file, ok = l.exports[path]
		l.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	return os.Open(file)
}

// LoadAll loads every package of the module, skipping testdata and hidden
// directories. The result is sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoSource(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func hasGoSource(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the single package in dir (non-test files
// only). The import path is derived from the directory's position inside
// the module, so fixtures under testdata get paths like
// repro/internal/analysis/testdata/src/badprint — which deliberately makes
// path-scoped analyzers (noprint's internal/ rule) apply to them.
func (l *Loader) LoadDir(dir string) (*Package, error) { return l.loadDir(dir, nil) }

// loadDir is LoadDir with an overlay: a file whose absolute path is a key
// of overlay is parsed from that source instead of from disk.
func (l *Loader) loadDir(dir string, overlay map[string][]byte) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	path := l.ModPath
	if rel != "." {
		path = l.ModPath + "/" + filepath.ToSlash(rel)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines and _GOOS suffixes)
		// for the host platform, like the compiler does — otherwise both
		// halves of a platform-split file pair land in the package and
		// redeclare their shared surface.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		file := filepath.Join(dir, name)
		var src any
		if b, ok := overlay[file]; ok {
			src = b
		}
		f, err := parser.ParseFile(l.Fset, file, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go source in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}
