package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// The fixture trees double as loader tests: multi-package modules with
// module-internal imports must come back type-checked, in import-path
// order.
func TestLoadTreeResolvesModuleInternalImports(t *testing.T) {
	pkgs, err := LoadTree(filepath.Join("testdata", "obsguard"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		if p.Types == nil || p.Info == nil {
			t.Errorf("package %s loaded without type information", p.Path)
		}
		if len(p.Files) == 0 {
			t.Errorf("package %s has no files", p.Path)
		}
	}
	want := []string{"fixture", "fixture/obs"}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
}

// Nested package trees load whole, so path-scoped analyzer exemptions
// (goroutine's internal/parallel carve-out) see the real import path.
func TestLoadTreeBuildsNestedImportPaths(t *testing.T) {
	pkgs, err := LoadTree(filepath.Join("testdata", "goroutine"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pkgs {
		if p.Path == "fixture/internal/parallel" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fixture/internal/parallel not loaded; got %d packages", len(pkgs))
	}
}

// Pattern selection narrows the analysis set without breaking the import
// universe: selecting one subtree must not drag sibling packages in, and a
// pattern that matches nothing is an error, not silence.
func TestLoadModulePatternSelection(t *testing.T) {
	pkgs, err := LoadModule("../..", "./internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/lint") {
			t.Errorf("pattern ./internal/lint selected %s", p.Path)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("pattern selected nothing")
	}
	// The lint package's own tests are in-package: the unit must carry them.
	hasTests := false
	for _, f := range pkgs[0].Files {
		if strings.HasSuffix(pkgs[0].Fset.Position(f.Pos()).Filename, "_test.go") {
			hasTests = true
		}
	}
	if !hasTests {
		t.Error("analysis unit omits in-package test files")
	}
	if _, err := LoadModule("../..", "./does/not/exist"); err == nil {
		t.Fatal("pattern matching nothing must error")
	}
}

// ParseDir is the syntax-only path the keep-in-sync tests share: no type
// info, but full file and source coverage of one directory.
func TestParseDirSyntaxOnly(t *testing.T) {
	pkg, err := ParseDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Name != "lint" {
		t.Fatalf("package name %q, want lint", pkg.Name)
	}
	if pkg.Types != nil || pkg.Info != nil {
		t.Error("syntax-only load must not type-check")
	}
	if len(pkg.Files) < 8 {
		t.Errorf("parsed %d files, expected the full package", len(pkg.Files))
	}
}

// A function declared once per architecture (a _amd64.go file and a
// //go:build !amd64 file) loads as one declaration: the loader keeps only
// the files the host build compiles.
func TestLoadTreeHonorsBuildConstraints(t *testing.T) {
	pkgs, err := LoadTree(filepath.Join("testdata", "buildtags"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 2 {
		t.Fatalf("loaded %d packages, want one package of two files", len(pkgs))
	}
}
