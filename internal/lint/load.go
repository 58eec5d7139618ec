package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Module is one loaded Go module: every non-test package parsed and
// typechecked in dependency order against a shared FileSet.
type Module struct {
	// Root is the absolute module root directory (where go.mod lives).
	Root string
	// Path is the module path from go.mod.
	Path string
	// Fset is the FileSet all package positions resolve through.
	Fset *token.FileSet
	// Pkgs holds the packages in dependency order (imports first).
	Pkgs []*Package

	byPath map[string]*Package

	// memo caches cross-package analysis state (the guarded-field table)
	// so an analyzer that needs a whole-module view computes it once.
	memoMu sync.Mutex
	memo   map[string]any
}

// memoize returns the cached value for key, computing it with f on first
// use. Safe for concurrent use by analyzers.
func (m *Module) memoize(key string, f func() any) any {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if m.memo == nil {
		m.memo = map[string]any{}
	}
	v, ok := m.memo[key]
	if !ok {
		v = f()
		m.memo[key] = v
	}
	return v
}

// Package is one parsed and typechecked package of the module.
type Package struct {
	// Path is the full import path (module path + "/" + Rel).
	Path string
	// Rel is the module-relative directory ("" for the root package).
	Rel string
	// Dir is the absolute directory.
	Dir string
	// Files holds the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
	// Imports holds the module-local import paths this package uses.
	Imports []string
}

// The standard library is typechecked from GOROOT/src through the source
// importer; sharing one importer (and its FileSet) across Load calls means
// each stdlib package is checked at most once per process.
var (
	sharedOnce sync.Once
	sharedFset *token.FileSet
	stdImp     types.ImporterFrom
)

func sharedImporter() (*token.FileSet, types.ImporterFrom) {
	sharedOnce.Do(func() {
		sharedFset = token.NewFileSet()
		stdImp = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	})
	return sharedFset, stdImp
}

// Load parses and typechecks the module containing dir (searching upward
// for go.mod), skipping _test.go files, testdata, vendor, and nested
// modules. Analyzer runs need full type information, so any parse or type
// error fails the load.
func Load(dir string) (*Module, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, imp := sharedImporter()
	m := &Module{Root: root, Path: modPath, Fset: fset, byPath: map[string]*Package{}}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	parsed := map[string]*Package{} // by import path
	for _, d := range dirs {
		p, err := m.parseDir(d)
		if err != nil {
			return nil, err
		}
		if p != nil {
			parsed[p.Path] = p
		}
	}

	order, err := dependencyOrder(parsed)
	if err != nil {
		return nil, err
	}
	for _, p := range order {
		if err := m.check(p, imp); err != nil {
			return nil, err
		}
		m.byPath[p.Path] = p
		m.Pkgs = append(m.Pkgs, p)
	}
	return m, nil
}

// Position renders pos as a module-relative "file:line:col" string.
func (m *Module) Position(pos token.Pos) string {
	p := m.Fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column)
}

// relFile returns the module-relative path of the file containing pos.
func (m *Module) relFile(pos token.Pos) string {
	file := m.Fset.Position(pos).Filename
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found in or above %s", abs)
		}
		d = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs returns every directory under root that holds non-test .go
// files, excluding testdata, vendor, hidden directories, and nested
// modules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isLintableFile(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func isLintableFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// parseDir parses one directory into a Package (nil when it holds no
// lintable files after filtering).
func (m *Module) parseDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isLintableFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	path := m.Path
	if rel != "" {
		path = m.Path + "/" + rel
	}

	p := &Package{Path: path, Rel: rel, Dir: dir}
	pkgName := ""
	seen := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("lint: %s: mixed package names %q and %q", dir, pkgName, f.Name.Name)
		}
		p.Files = append(p.Files, f)
		for _, spec := range f.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if ip == m.Path || strings.HasPrefix(ip, m.Path+"/") {
				if !seen[ip] {
					seen[ip] = true
					p.Imports = append(p.Imports, ip)
				}
			}
		}
	}
	sort.Strings(p.Imports)
	return p, nil
}

// dependencyOrder topologically sorts the parsed packages by their
// module-local imports (imports first), failing on cycles.
func dependencyOrder(parsed map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(parsed))
	for p := range parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = gray
		p := parsed[path]
		for _, dep := range p.Imports {
			if dp, ok := parsed[dep]; ok {
				if err := visit(dp.Path); err != nil {
					return err
				}
			}
		}
		state[path] = black
		order = append(order, p)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-local packages from the already-checked
// set and everything else through the shared source importer.
type moduleImporter struct {
	m   *Module
	std types.ImporterFrom
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := mi.m.byPath[path]; ok {
		return p.Types, nil
	}
	if path == mi.m.Path || strings.HasPrefix(path, mi.m.Path+"/") {
		return nil, fmt.Errorf("module package %s not loaded (dependency order violated?)", path)
	}
	return mi.std.ImportFrom(path, dir, mode)
}

// check typechecks one package, populating p.Types and p.Info.
func (m *Module) check(p *Package, std types.ImporterFrom) error {
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: &moduleImporter{m: m, std: std},
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err)
			}
		},
	}
	tpkg, _ := conf.Check(p.Path, m.Fset, p.Files, p.Info)
	if len(errs) > 0 {
		return fmt.Errorf("lint: typecheck %s: %w", p.Path, errors.Join(errs...))
	}
	p.Types = tpkg
	return nil
}
