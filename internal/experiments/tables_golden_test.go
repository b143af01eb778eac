package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
)

// goldenRow is one pinned rendering: the registry id run under a scenario,
// golden in testdata/tables/<name>.txt.
type goldenRow struct {
	name, id string
	scen     Scenario
}

// clusterGoldenRows are the serving grids' rows, pinned by
// TestClusterTablesGolden at their CI smoke size.
var clusterGoldenRows = []goldenRow{
	// dipbench -exp cluster -small: the default grid, drain and fail
	// replays included.
	{"cluster-small", "cluster", Scenario{Smoke: true}},
	// dipbench -serve -small -nodes 3 -node-chaos 0.03 -recover-ticks 60
	// -router least-loaded -arb fair: the detector columns.
	{"cluster-chaos", "cluster", Scenario{Smoke: true, Nodes: 3, NodeChaos: 0.03, RecoverTicks: 60, Router: "least-loaded", Arb: "fair"}},
	// dipbench -exp chaos -small.
	{"chaos-small", "chaos", Scenario{Smoke: true}},
}

// tableGoldenRows are the rows TestTablesGolden pins: every other registry
// id once, serve at its smoke size and the offline drivers at the zero
// Scenario.
var tableGoldenRows = sync.OnceValue(func() []goldenRow {
	var rows []goldenRow
	for _, id := range IDs() {
		switch id {
		case "cluster", "chaos":
		case "serve":
			rows = append(rows, goldenRow{id, id, Scenario{Smoke: true}})
		default:
			rows = append(rows, goldenRow{id, id, Scenario{}})
		}
	}
	return rows
})

// goldenRows is every pinned row: every registry id at least once.
var goldenRows = sync.OnceValue(func() []goldenRow {
	return append(slices.Clone(tableGoldenRows()), clusterGoldenRows...)
})

// run is one driver invocation: a registry id under a scenario.
type run struct {
	id   string
	scen Scenario
}

// rendered memoizes each run's tables, so a test binary runs every driver
// invocation once: TestTablesGolden and the claims (TestClaims) read the
// same tables.
var rendered struct {
	sync.Mutex
	tables map[run][]*Table
}

// tablesOf returns the tables of the golden row with the given name.
func tablesOf(t *testing.T, name string) []*Table {
	t.Helper()
	i := slices.IndexFunc(goldenRows(), func(r goldenRow) bool { return r.name == name })
	if i < 0 {
		t.Fatalf("no golden row named %q", name)
	}
	row := goldenRows()[i]
	return tablesFor(t, run{row.id, row.scen})
}

// tablesFor returns r's tables, running its driver on sharedLab on first
// use. r must be a run dipbench accepts: its scenario passes Validate with
// the flags its non-zero fields stand for.
func tablesFor(t *testing.T, r run) []*Table {
	t.Helper()
	rendered.Lock()
	defer rendered.Unlock()
	if tabs, ok := rendered.tables[r]; ok {
		return tabs
	}
	set := make(map[string]bool)
	for _, f := range scenarioFlags {
		if !reflect.ValueOf(f.field(&r.scen)).Elem().IsZero() {
			set[f.name] = true
		}
	}
	s := r.scen // Validate resolves -trace into Workload; the run keeps its own
	if err := s.Validate(r.id, set); err != nil {
		t.Fatalf("-exp %s %+v: dipbench rejects it: %v", r.id, r.scen, err)
	}
	defer func(s Scenario) { sharedLab.Serve = s }(sharedLab.Serve)
	sharedLab.Serve = r.scen
	tabs, err := Run(sharedLab, r.id)
	if err != nil {
		t.Fatalf("-exp %s %+v: %v", r.id, r.scen, err)
	}
	if rendered.tables == nil {
		rendered.tables = make(map[run][]*Table)
	}
	rendered.tables[r] = tabs
	return tabs
}

// Every registered id runs through the registry at test scale and renders
// non-empty tables under its id; an unknown id errors.
func TestRegistryRunsEverything(t *testing.T) {
	if len(IDs()) != 21 {
		t.Fatalf("expected 21 experiments, got %d: %v", len(IDs()), IDs())
	}
	if _, err := Run(sharedLab, "nope"); err == nil {
		t.Fatal("unknown id should error")
	}
	for _, row := range goldenRows() {
		tables := tablesOf(t, row.name)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", row.id)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Fatalf("%s table %s empty", row.id, tab.ID)
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			if !strings.Contains(buf.String(), "== "+tab.ID+": ") {
				t.Fatalf("render missing id for %s", tab.ID)
			}
		}
	}
}

// Every registered table at test scale, pinned byte for byte: every column
// is on the simulated tick clock or deterministic in the lab's seeds except
// wall_tok_s, which is stripped by name. A refactor must leave these files
// unedited, and a new id with no golden fails. Float formatting is pinned
// on amd64 only. Regenerate with
//
//	UPDATE_CSV_GOLDEN=1 go test ./internal/experiments -run 'TestTablesGolden|TestClusterTablesGolden|TestArtifactPins'
func TestTablesGolden(t *testing.T) {
	for _, row := range tableGoldenRows() {
		t.Run(row.name, func(t *testing.T) { checkGolden(t, row.name) })
	}
}

// The cluster and chaos tables, pinned the same way at their CI smoke
// sizes.
func TestClusterTablesGolden(t *testing.T) {
	for _, row := range clusterGoldenRows {
		t.Run(row.name, func(t *testing.T) { checkGolden(t, row.name) })
	}
}

// checkGolden compares the named golden row's rendered tables, wall_tok_s
// stripped, with testdata/tables/<name>.txt.
func checkGolden(t *testing.T, name string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("table goldens are pinned on amd64")
	}
	var buf bytes.Buffer
	for _, tab := range tablesOf(t, name) {
		withoutColumn(tab, "wall_tok_s").Render(&buf)
	}
	matchGolden(t, filepath.Join("testdata", "tables", name+".txt"), buf.Bytes())
}

// The four trained analogs at test scale, pinned by the sha256 of their
// float32 weight bits, one `sha256sum`-style line per analog: a table
// golden can hold by luck while a weight moved. Pinned on amd64 only, with
// the table goldens, and regenerated with them (UPDATE_CSV_GOLDEN=1).
func TestArtifactPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("artifact pins are taken on amd64")
	}
	var buf bytes.Buffer
	for _, name := range model.AnalogNames() {
		h := sha256.New()
		var b []byte
		for _, p := range sharedLab.Model(name).Params() {
			b = b[:0]
			for _, w := range p.W.Data {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(w))
			}
			h.Write(b)
		}
		fmt.Fprintf(&buf, "%x  %s\n", h.Sum(nil), name)
	}
	matchGolden(t, filepath.Join("testdata", "artifacts.sha256"), buf.Bytes())
}

// matchGolden fails unless got equals the golden file's bytes, writing the
// file first when UPDATE_CSV_GOLDEN is set.
func matchGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_CSV_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// withoutColumn returns a copy of tab without the named column.
func withoutColumn(tab *Table, col string) *Table {
	i := slices.Index(tab.Columns, col)
	if i < 0 {
		return tab
	}
	out := *tab
	out.Columns = slices.Delete(slices.Clone(tab.Columns), i, i+1)
	out.Rows = make([][]string, len(tab.Rows))
	for r, row := range tab.Rows {
		out.Rows[r] = slices.Delete(slices.Clone(row), i, i+1)
	}
	return &out
}
