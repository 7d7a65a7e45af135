// Package loading for the binelint driver: a dependency-free (stdlib-only)
// replacement for golang.org/x/tools/go/packages, matching the repo's
// no-deps ethos. The Loader walks the module tree, parses each package
// directory with go/parser, and type-checks it with go/types; module-local
// imports resolve recursively through the Loader's own cache (so every
// package in one analysis run shares one object identity space), and
// standard-library imports resolve through go/importer's source importer,
// which reads GOROOT/src.
//
// Test files (_test.go) are not loaded: binelint checks the invariants of
// shipped code, and tests legitimately use context.Background() and other
// patterns the analyzers forbid in request paths.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the import path ("binetrees/internal/harness").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the package's non-test files, sorted by file name.
	Files []*ast.File
	// Pkg and Info are the go/types check results.
	Pkg  *types.Package
	Info *types.Info
}

// Loader loads and caches the module's packages. It doubles as the
// types.Importer for module-local import paths, so a package graph checked
// through one Loader shares one set of types.Object identities.
type Loader struct {
	Fset *token.FileSet
	// ModRoot is the directory containing go.mod; Module its module path.
	ModRoot string
	Module  string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader locates the enclosing module of dir (walking up to go.mod) and
// returns a Loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		Module:  mod,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// skipDir reports whether a directory is excluded from LoadAll: testdata
// trees (the golden-diagnostics packages deliberately violate the rules),
// VCS/hidden directories, and underscore-prefixed directories, matching the
// go tool's ./... expansion.
func skipDir(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadAll loads every package under the module root (the ./... set, bench/
// included), each once, in deterministic directory order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != l.ModRoot && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The walk visits a directory's files on both sides of its
	// sub-directories (bench/calibrate.go … bench/probe/ … bench/workloads.go),
	// so duplicates are not adjacent until sorted.
	slices.Sort(dirs)
	dirs = slices.Compact(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the package in one directory (non-test
// files only), loading its module-local imports first. Results are cached
// by import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer: module-local paths load through the
// Loader (sharing its cache and object identities), everything else — the
// standard library — through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		p, err := l.load(path, filepath.Join(l.ModRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}
