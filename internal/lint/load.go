package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
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
)

// Package is one analysis unit: a type-checked set of files sharing a
// package clause. A package with in-package tests is one unit of library
// and test files checked together; its external test package (package
// foo_test) is a second unit, which imports the first.
type Package struct {
	// Path is the unit's import path; external test units carry the
	// compiler's spelling, "<path>_test".
	Path string
	Name string
	Dir  string

	Fset  *token.FileSet
	Files []*ast.File
	// Src holds each file's source bytes by filename — the directive
	// parser uses it to decide whether a comment stands on its own line.
	Src map[string][]byte

	Types *types.Package
	Info  *types.Info
}

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Name       string
	Dir        string
	ForTest    string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	Error      *struct{ Err string }
}

// LoadModule returns the analysis units the patterns name (default
// "./...") in the module at dir, in import-path order. The go command
// decides everything about the tree: module root, which directories the
// patterns match, which files the host build compiles, and the import
// graph. `go list -test -deps -export` reports that and compiles export
// data for every dependency; each unit is then parsed and type-checked
// from source, importing its dependencies from that export data.
//
// The units are P when P has no in-package tests, "P [P.test]" (library
// and in-package tests together) when it has, and "P_test [P.test]" for
// external tests.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	list, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	export := make(map[string]string, len(list))
	tested := make(map[string]bool) // P that has a "P [P.test]" unit
	mains := make(map[string]bool)  // the generated "P.test" main packages
	for _, p := range list {
		export[p.ImportPath] = p.Export
		if p.ForTest != "" {
			mains[p.ForTest+".test"] = true
			if unitPath(p) == p.ForTest {
				tested[p.ForTest] = true
			}
		}
	}
	fset := token.NewFileSet()
	src := make(map[string][]byte)
	var pkgs []*Package
	for _, p := range list {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
		}
		path := unitPath(p)
		if len(p.GoFiles) == 0 || p.ForTest == "" && (tested[path] || mains[path]) {
			continue
		}
		pkg, err := check(fset, src, p, path, export)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: patterns %q match no packages in %s", patterns, dir)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// unitPath strips the " [P.test]" variant suffix from an import path.
func unitPath(p listed) string {
	path, _, _ := strings.Cut(p.ImportPath, " ")
	return path
}

func goList(dir string, patterns []string) ([]listed, error) {
	args := append([]string{"list", "-e", "-test", "-deps", "-export",
		"-json=ImportPath,Name,Dir,ForTest,Export,GoFiles,ImportMap,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var list []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return list, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list in %s: %w", dir, err)
		}
		list = append(list, p)
	}
}

// check parses one unit's files and type-checks them, resolving each
// import through the unit's ImportMap to the export data go list compiled.
func check(fset *token.FileSet, src map[string][]byte, p listed, path string, export map[string]string) (*Package, error) {
	pkg := &Package{Path: path, Name: p.Name, Dir: p.Dir, Fset: fset, Src: src}
	for _, name := range p.GoFiles {
		file := filepath.Join(p.Dir, name)
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, file, b, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", file, err)
		}
		src[file] = b
		pkg.Files = append(pkg.Files, f)
	}
	lookup := func(ipath string) (io.ReadCloser, error) {
		if id, ok := p.ImportMap[ipath]; ok {
			ipath = id
		}
		if export[ipath] == "" {
			return nil, fmt.Errorf("no export data for %q", ipath)
		}
		return os.Open(export[ipath])
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var msgs []string
	cfg := &types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { msgs = append(msgs, err.Error()) },
	}
	pkg.Types, _ = cfg.Check(path, fset, pkg.Files, pkg.Info)
	if len(msgs) > 0 {
		if len(msgs) > 10 {
			msgs = append(msgs[:10], fmt.Sprintf("... and %d more", len(msgs)-10))
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return pkg, nil
}
