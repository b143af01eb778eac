package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// The cluster and chaos tables at test scale, pinned byte for byte: every
// column is on the simulated tick clock except wall_tok_s, which is
// stripped by name. A report refactor must leave these files unedited.
// Float formatting of the simulated quantities is pinned on amd64 only.
// Regenerate with
//
//	UPDATE_CSV_GOLDEN=1 go test ./internal/experiments -run TestClusterTablesGolden
func TestClusterTablesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("table goldens are pinned on amd64")
	}
	defer func(s Scenario) { sharedLab.Serve = s }(sharedLab.Serve)
	for _, c := range []struct {
		name string
		run  Driver
		scen Scenario
	}{
		// dipbench -exp cluster -small: the default grid, drain and fail
		// replays included.
		{"cluster-small", ClusterServe, Scenario{Smoke: true}},
		// dipbench -serve -small -nodes 3 -node-chaos 0.03 -recover-ticks 60
		// -router least-loaded -arb fair: the detector columns.
		{"cluster-chaos", ClusterServe, Scenario{Smoke: true, Nodes: 3, NodeChaos: 0.03, RecoverTicks: 60, Router: "least-loaded", Arb: "fair"}},
		// dipbench -exp chaos -small.
		{"chaos-small", Chaos, Scenario{Smoke: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sharedLab.Serve = c.scen
			tables, err := c.run(sharedLab)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tab := range tables {
				withoutColumn(tab, "wall_tok_s").Render(&buf)
			}
			golden := filepath.Join("testdata", "tables", c.name+".txt")
			if os.Getenv("UPDATE_CSV_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s drifted from %s:\n--- got ---\n%s--- want ---\n%s", c.name, golden, buf.Bytes(), want)
			}
		})
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
