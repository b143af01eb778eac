package experiments

import (
	"bytes"
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// srcPkg loads the package source, tests included, exactly once through
// the repolint loader, so this scan and the analyzers read one tree.
var srcPkg = sync.OnceValues(func() (*lint.Package, error) {
	pkgs, err := lint.LoadModule(".", ".")
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
})

// driverFuncNames returns every exported top-level function with the
// Driver signature func(*Lab) ([]*Table, error), sorted.
func driverFuncNames(t *testing.T) []string {
	t.Helper()
	pkg, err := srcPkg()
	if err != nil {
		t.Fatal(err)
	}
	return lint.ExportedFuncs(pkg, isDriverSignature)
}

// isDriverSignature matches func(*Lab) ([]*Table, error) structurally.
func isDriverSignature(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) != 1 ||
		ft.Results == nil || len(ft.Results.List) != 2 {
		return false
	}
	in, ok := ft.Params.List[0].Type.(*ast.StarExpr)
	if !ok || !isIdent(in.X, "Lab") {
		return false
	}
	out, ok := ft.Results.List[0].Type.(*ast.ArrayType)
	if !ok {
		return false
	}
	elem, ok := out.Elt.(*ast.StarExpr)
	if !ok || !isIdent(elem.X, "Table") {
		return false
	}
	return isIdent(ft.Results.List[1].Type, "error")
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// Every exported function with the Driver signature must be registered —
// an unregistered driver is dead code invisible to dipbench -list and the
// CI sweeps.
func TestEveryExportedDriverIsRegistered(t *testing.T) {
	registered := make(map[string]string) // func name -> id
	for id, d := range registry {
		full := runtime.FuncForPC(reflect.ValueOf(d).Pointer()).Name()
		name := full[strings.LastIndex(full, ".")+1:]
		if prev, dup := registered[name]; dup {
			t.Fatalf("driver %s registered under both %q and %q", name, prev, id)
		}
		registered[name] = id
	}
	exported := driverFuncNames(t)
	if len(exported) == 0 {
		t.Fatal("found no exported drivers in the package source")
	}
	for _, name := range exported {
		if _, ok := registered[name]; !ok {
			t.Errorf("exported driver %s is not in the registry", name)
		}
	}
	if len(registered) != len(exported) {
		t.Errorf("registry has %d drivers, source exports %d: %v vs %v",
			len(registered), len(exported), registered, exported)
	}
}

// Run on an unknown id must name every known id, sorted, so a typo'd
// invocation is self-correcting.
func TestRunUnknownIDListsSortedKnownIDs(t *testing.T) {
	ids := IDs()
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("IDs() not sorted: %v", ids)
	}
	_, err := Run(sharedLab, "definitely-not-an-experiment")
	if err == nil {
		t.Fatal("unknown id must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"definitely-not-an-experiment"`) {
		t.Fatalf("error does not quote the unknown id: %v", err)
	}
	pos := -1
	for _, id := range ids {
		next := strings.Index(msg, id)
		if next < 0 {
			t.Fatalf("error omits known id %q: %v", id, err)
		}
		if next < pos {
			t.Fatalf("known ids not listed in sorted order: %v", err)
		}
		pos = next
	}
}

// Golden-file test: RenderCSV's exact byte output is a published artifact
// (plotting scripts parse it), so drift must be deliberate. Regenerate with
//
//	UPDATE_CSV_GOLDEN=1 go test ./internal/experiments -run TestRenderCSVGolden
func TestRenderCSVGolden(t *testing.T) {
	tab := &Table{
		ID:    "serve",
		Title: "Workload grid, miniature",
		Columns: []string{"workload", "sched", "policy", "sessions",
			"sim_tok_s", "slo_attain"},
	}
	tab.AddRow("fixed", "fcfs", "shared", 6, 12.345678, 1.0)
	tab.AddRow("poisson", "edf", "fair", 6, 9.87, 0.5)
	tab.AddRow("trace, replay", "prio", "greedy", 3, float32(2.5), 0.0)
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "render_csv.golden")
	if os.Getenv("UPDATE_CSV_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("RenderCSV drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}
