package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
)

// sharedLab is trained once per test process at miniature scale.
var sharedLab = NewLab(model.ScaleTest)

func cell(t *testing.T, tab *Table, rowMatch map[string]string, col string) string {
	t.Helper()
	colIdx := -1
	for i, c := range tab.Columns {
		if c == col {
			colIdx = i
		}
	}
	if colIdx < 0 {
		t.Fatalf("table %s has no column %q", tab.ID, col)
	}
	for _, row := range tab.Rows {
		ok := true
		for mc, mv := range rowMatch {
			mi := -1
			for i, c := range tab.Columns {
				if c == mc {
					mi = i
				}
			}
			if mi < 0 || row[mi] != mv {
				ok = false
				break
			}
		}
		if ok {
			return row[colIdx]
		}
	}
	t.Fatalf("table %s has no row matching %v", tab.ID, rowMatch)
	return ""
}

func cellF(t *testing.T, tab *Table, rowMatch map[string]string, col string) float64 {
	t.Helper()
	s := cell(t, tab, rowMatch, col)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func findTable(t *testing.T, tables []*Table, id string) *Table {
	t.Helper()
	for _, tab := range tables {
		if tab.ID == id {
			return tab
		}
	}
	t.Fatalf("no table with id %q", id)
	return nil
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("verylongcell", 1.23456)
	tab.Notes = append(tab.Notes, "a note")
	var buf bytes.Buffer
	tab.Render(&buf)
	s := buf.String()
	if !strings.Contains(s, "verylongcell") || !strings.Contains(s, "1.235") || !strings.Contains(s, "note: a note") {
		t.Fatalf("render wrong:\n%s", s)
	}
}

func TestRenderCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tab.AddRow("v", 1.5)
	tab.AddRow("w,comma", 2.0)
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "# x: t\n") {
		t.Fatalf("missing comment header: %q", s)
	}
	if !strings.Contains(s, "a,b\n") || !strings.Contains(s, "v,1.500") {
		t.Fatalf("csv body wrong: %q", s)
	}
	if !strings.Contains(s, "\"w,comma\"") {
		t.Fatalf("comma cell not quoted: %q", s)
	}
}
