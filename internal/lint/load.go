package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one analysis unit: a type-checked set of files sharing a
// package clause. A directory yields up to two units — the package itself
// (library files plus in-package _test.go files, checked together) and the
// external test package (package foo_test), which imports the former.
type Package struct {
	// Path is the unit's import path within the module; external test
	// units carry the real compiler spelling, "<path>_test" on the
	// package-under-test's path.
	Path string
	Name string
	Dir  string

	Fset  *token.FileSet
	Files []*ast.File
	// Src holds each file's source bytes by filename — the directive
	// parser uses it to decide whether a comment stands on its own line.
	Src map[string][]byte

	// Types and Info are nil for syntax-only loads (ParseDir).
	Types *types.Package
	Info  *types.Info
}

// loader parses every directory under one module root once and
// type-checks units on demand, resolving module-internal imports from its
// own results and everything else through the toolchain importers.
type loader struct {
	fset    *token.FileSet
	root    string
	modpath string

	units map[string]*dirUnit // keyed by import path
	src   map[string][]byte

	gcImp  types.Importer
	srcImp types.Importer
	extern map[string]*types.Package

	checking map[string]bool // cycle detection
}

// dirUnit is one parsed directory, files split by package clause.
type dirUnit struct {
	dir, path string
	lib       []*ast.File // package P, non-_test.go
	inTest    []*ast.File // package P, _test.go
	extTest   []*ast.File // package P_test

	libOnly  *types.Package // lib files alone: the import universe entry
	libInfo  *types.Info
	combined *types.Package // lib + in-package tests: what extTest imports
	combInfo *types.Info
}

// LoadModule locates the module root at or above dir (via go.mod), parses
// and type-checks the whole module, and returns the analysis units selected
// by the patterns ("./..." for everything, "dir/..." for a subtree, or a
// plain directory), in import-path order. The entire tree is always parsed
// — an out-of-pattern package can still be an in-pattern package's import —
// but only in-pattern units are returned for analysis.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	root, modpath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return load(root, modpath, dir, patterns)
}

// LoadTree loads a bare source tree with an explicit module path and no
// go.mod — the fixture runner uses it to type-check each analyzer's
// testdata directory as a miniature module.
func LoadTree(root, modpath string) ([]*Package, error) {
	return load(root, modpath, root, []string{"./..."})
}

func load(root, modpath, base string, patterns []string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	base, err = filepath.Abs(base)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:     token.NewFileSet(),
		root:     root,
		modpath:  modpath,
		units:    make(map[string]*dirUnit),
		src:      make(map[string][]byte),
		extern:   make(map[string]*types.Package),
		checking: make(map[string]bool),
	}
	l.gcImp = importer.Default()
	l.srcImp = importer.ForCompiler(l.fset, "source", nil)
	if err := l.parseTree(); err != nil {
		return nil, err
	}
	want, err := l.selectDirs(base, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range sortedKeys(l.units) {
		u := l.units[path]
		if !want[u.dir] {
			continue
		}
		if len(u.lib)+len(u.inTest) > 0 {
			if _, err := l.combinedPackage(path); err != nil {
				return nil, err
			}
			pkgs = append(pkgs, &Package{
				Path: path, Name: u.combined.Name(), Dir: u.dir,
				Fset: l.fset, Files: append(append([]*ast.File(nil), u.lib...), u.inTest...),
				Src: l.src, Types: u.combined, Info: u.combInfo,
			})
		}
		if len(u.extTest) > 0 {
			tp, info, err := l.checkExternalTest(u)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, &Package{
				Path: path + "_test", Name: tp.Name(), Dir: u.dir,
				Fset: l.fset, Files: append([]*ast.File(nil), u.extTest...),
				Src: l.src, Types: tp, Info: info,
			})
		}
	}
	return pkgs, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
	}
}

// parseTree parses every .go file the host build selects under the root,
// skipping testdata, vendor, hidden, and underscore directories.
func (l *loader) parseTree() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		// Keep only the files the host build compiles (GOOS/GOARCH file
		// suffixes, //go:build lines), so a function declared once per
		// architecture type-checks as one declaration.
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok {
			return err
		}
		return l.parseFile(path)
	})
}

func (l *loader) parseFile(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := parser.ParseFile(l.fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return fmt.Errorf("lint: parse %s: %w", path, err)
	}
	l.src[path] = src
	dir := filepath.Dir(path)
	ipath, err := l.importPath(dir)
	if err != nil {
		return err
	}
	u := l.units[ipath]
	if u == nil {
		u = &dirUnit{dir: dir, path: ipath}
		l.units[ipath] = u
	}
	switch {
	case strings.HasSuffix(f.Name.Name, "_test"):
		u.extTest = append(u.extTest, f)
	case strings.HasSuffix(path, "_test.go"):
		u.inTest = append(u.inTest, f)
	default:
		u.lib = append(u.lib, f)
	}
	return nil
}

// importPath maps a directory under the root to its module import path.
func (l *loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modpath, nil
	}
	return l.modpath + "/" + filepath.ToSlash(rel), nil
}

// selectDirs expands the patterns (relative to base) into the set of
// directories whose units the caller wants analyzed.
func (l *loader) selectDirs(base string, patterns []string) (map[string]bool, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	want := make(map[string]bool)
	for _, pat := range patterns {
		sub, all := strings.CutSuffix(pat, "...")
		sub = strings.TrimSuffix(sub, "/")
		if sub == "" || sub == "." {
			sub = base
		} else if !filepath.IsAbs(sub) {
			sub = filepath.Join(base, sub)
		}
		abs, err := filepath.Abs(sub)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, u := range l.units {
			if u.dir == abs || (all && (u.dir == abs || strings.HasPrefix(u.dir, abs+string(filepath.Separator)))) {
				want[u.dir] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("lint: pattern %q matches no packages under %s", pat, l.root)
		}
	}
	return want, nil
}

// libPackage type-checks a module-internal package's library files alone —
// the entry every other package's imports resolve against.
func (l *loader) libPackage(path string) (*types.Package, error) {
	u, ok := l.units[path]
	if !ok {
		return nil, fmt.Errorf("lint: import %q does not resolve to a directory under %s", path, l.root)
	}
	if u.libOnly != nil {
		return u.libOnly, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	if len(u.lib) == 0 {
		return nil, fmt.Errorf("lint: package %q has only test files and cannot be imported", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)
	tp, info, err := l.check(path, u.lib, nil)
	if err != nil {
		return nil, err
	}
	u.libOnly, u.libInfo = tp, info
	return tp, nil
}

// combinedPackage type-checks a unit's library and in-package test files
// together — the view analyzers walk, and the package external tests
// import (in-package test files may export identifiers external tests use).
func (l *loader) combinedPackage(path string) (*types.Package, error) {
	u := l.units[path]
	if u.combined != nil {
		return u.combined, nil
	}
	if len(u.inTest) == 0 {
		// No in-package tests: the combined unit is the library unit.
		if _, err := l.libPackage(path); err != nil {
			return nil, err
		}
		u.combined, u.combInfo = u.libOnly, u.libInfo
		return u.combined, nil
	}
	files := append(append([]*ast.File(nil), u.lib...), u.inTest...)
	tp, info, err := l.check(path, files, nil)
	if err != nil {
		return nil, err
	}
	u.combined, u.combInfo = tp, info
	return tp, nil
}

func (l *loader) checkExternalTest(u *dirUnit) (*types.Package, *types.Info, error) {
	under, err := l.combinedPackage(u.path)
	if err != nil && len(u.lib)+len(u.inTest) > 0 {
		return nil, nil, err
	}
	return l.check(u.path+"_test", u.extTest, map[string]*types.Package{u.path: under})
}

// check runs go/types over one file set. overrides pre-resolves specific
// import paths (the external-test view of the package under test).
func (l *loader) check(path string, files []*ast.File, overrides map[string]*types.Package) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var errs []error
	cfg := &types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			if p, ok := overrides[ipath]; ok && p != nil {
				return p, nil
			}
			return l.importPkg(ipath)
		}),
		Error: func(err error) { errs = append(errs, err) },
	}
	tp, _ := cfg.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		if len(msgs) > 10 {
			msgs = append(msgs[:10], fmt.Sprintf("... and %d more", len(errs)-10))
		}
		return nil, nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return tp, info, nil
}

// importPkg resolves one import: unsafe specially, module-internal paths
// from the loader's own units, and everything else through the compiled
// export data importer with a from-source fallback.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
		return l.libPackage(path)
	}
	if p, ok := l.extern[path]; ok {
		return p, nil
	}
	p, err := l.gcImp.Import(path)
	if err != nil {
		p, err = l.srcImp.Import(path)
		if err != nil {
			return nil, err
		}
	}
	l.extern[path] = p
	return p, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func sortedKeys(m map[string]*dirUnit) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
