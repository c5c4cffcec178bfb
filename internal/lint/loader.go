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
	"sort"
	"strings"
)

// Package is one parsed and type-checked (non-test) package, the unit
// every Analyzer operates on.
type Package struct {
	// Path is the import path ("repro/internal/sim"); the module root
	// package is the module path itself.
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset is the loader-wide file set all position info resolves
	// through.
	Fset *token.FileSet
	// Files holds the parsed sources (with comments), sorted by file
	// name. _test.go files are excluded: test files may legitimately
	// use wall clocks, global RNGs and registries.
	Files []*ast.File
	// Types is the type-checker's package object.
	Types *types.Package
	// Info carries the expression types and identifier uses the
	// analyzers consult. Type-checking is best-effort (see TypeErrors);
	// analyzers must tolerate missing entries.
	Info *types.Info
	// TypeErrors collects type-checker diagnostics. A package that
	// compiles under `go build` produces none; fixtures and mid-refactor
	// trees may produce some, and analysis still proceeds on whatever
	// type information was recoverable.
	TypeErrors []error

	// loader built the package; an analyzer that needs the whole
	// module (testonly) reaches it from here.
	loader *Loader
}

// Loader parses and type-checks packages of one module. It is also the
// types.Importer the type-checker calls back into: module-internal
// import paths load recursively from source, everything else (the
// standard library) resolves through importer.Default. Loaded packages
// are cached, so shared dependencies type-check once.
type Loader struct {
	// ModRoot is the absolute module root directory (where go.mod
	// lives).
	ModRoot string
	// ModPath is the module path declared in go.mod.
	ModPath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	refs *refIndex // built by the first testonly run
}

// NewLoader returns a Loader for the module rooted at dir (the
// directory containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModRoot: root,
		ModPath: modPath,
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		pkgs:    map[string]*Package{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
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

// importPathFor maps an absolute package directory to its import path
// within the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks the package in one directory. Results
// are cached by import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// Import implements types.Importer: the type-checker calls it for every
// import encountered while checking a module package.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := l.ModRoot
		if path != l.ModPath {
			dir = filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
		}
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load is the cached parse+type-check of one package directory.
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
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
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return l.fset.Position(files[i].Pos()).Filename < l.fset.Position(files[j].Pos()).Filename
	})

	p := &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.fset,
		Files:  files,
		loader: l,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	// Cache before checking so import cycles (illegal in Go, but
	// possible in broken fixtures) terminate instead of recursing.
	l.pkgs[path] = p

	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// Check returns the (possibly incomplete) package even on error;
	// the lenient Error handler above keeps it going past individual
	// problems so Info is as full as the sources allow.
	tpkg, _ := conf.Check(path, l.fset, files, p.Info)
	p.Types = tpkg
	return p, nil
}

// Walk loads every package under root (inside the module), skipping
// testdata, hidden and vendor directories — the same pruning the go
// tool applies. The root directory itself is loaded even when it is
// inside a testdata tree, so fixtures can be linted by naming them
// explicitly.
func (l *Loader) Walk(root string) ([]*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != abs {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		if !hasGoSource(path) {
			return nil
		}
		p, err := l.LoadDir(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// hasGoSource reports whether dir directly contains at least one
// non-test .go file.
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
