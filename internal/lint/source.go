package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the syntax-only side of the loader: one parse pass over a
// package directory plus the exported-function scan the experiment
// registry's keep-in-sync test runs over its own package source, through
// the same parse code path as the analyzer suite.

// ParseDir parses every .go file in one directory — test files included,
// no type-checking — into a single syntax-only Package. Tests use it to
// introspect their own package's source; Types and Info are nil.
func ParseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Fset: token.NewFileSet(), Src: make(map[string][]byte)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(pkg.Fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", path, err)
		}
		pkg.Src[path] = src
		pkg.Files = append(pkg.Files, f)
		if pkg.Name == "" && !strings.HasSuffix(f.Name.Name, "_test") {
			pkg.Name = f.Name.Name
		}
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return pkg, nil
}

// ExportedFuncs returns the names of every exported top-level function
// (methods excluded) whose type matches the predicate, sorted.
func ExportedFuncs(pkg *Package, match func(*ast.FuncType) bool) []string {
	var names []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			if match(fd.Type) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}
