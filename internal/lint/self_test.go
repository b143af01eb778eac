package lint

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// The suite's acceptance test on itself: `repolint ./...` is clean on both
// of this repo's modules, the root and bench. Every violation an analyzer
// can catch has either been fixed or carries a justified //lint:allow
// directive — and those documented exemptions must exist (the
// Wall-annotation sites), so a suppression count of zero would mean the
// directives rotted away.
func TestRepolintIsCleanOnThisRepo(t *testing.T) {
	var pkgs []*Package
	for _, dir := range []string{"../..", "../../bench"} {
		mod, err := LoadModule(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, mod...)
	}
	listDirs(t, "../..")
	res := Run(pkgs, Analyzers())
	for _, d := range res.Diags {
		if !d.Suppressed {
			t.Error(d.String())
		}
	}
	if res.Suppressed == 0 {
		t.Error("no suppressed findings: the justified Wall-annotation directives are gone")
	}
	if res.Packages < 24 {
		t.Errorf("only %d packages loaded; the load lost most of the two modules", res.Packages)
	}
}

// listDirs opens every source directory under root. go test caches a
// result on the files its own process opens, and the go list child's
// directory reads are invisible to it; without this, a file added to or
// removed from the tree would replay a cached pass.
func listDirs(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
