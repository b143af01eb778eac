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

func TestFig2TrendShapes(t *testing.T) {
	tables := tablesOf(t, "fig2")
	fits := findTable(t, tables, "fig2-fits")
	npu := cellF(t, fits, map[string]string{"series": "npu_tops"}, "annual_rate")
	mdl := cellF(t, fits, map[string]string{"series": "model_b_params"}, "annual_rate")
	dram := cellF(t, fits, map[string]string{"series": "dram_gb"}, "annual_rate")
	if npu < 1.2 || mdl < 1.5 {
		t.Fatalf("exponential growth rates too low: npu %v model %v", npu, mdl)
	}
	if dram > 1.5 {
		t.Fatalf("DRAM slope %v GB/yr implausibly steep", dram)
	}
}

func TestFig3ZeroContrast(t *testing.T) {
	tables := tablesOf(t, "fig3")
	z := findTable(t, tables, "fig3-zeros")
	swiglu := cellF(t, z, map[string]string{"model": model.Mistral7BSim}, "exact_zero_frac")
	relu := cellF(t, z, map[string]string{"model": model.ReluFiedSim}, "exact_zero_frac")
	if relu <= swiglu {
		t.Fatalf("ReLU zero fraction %v should exceed SwiGLU %v", relu, swiglu)
	}
	if relu < 0.2 {
		t.Fatalf("ReLU model should be naturally sparse, zero frac %v", relu)
	}
	if swiglu > 0.05 {
		t.Fatalf("SwiGLU model should have almost no exact zeros, got %v", swiglu)
	}
}

func TestFig4GlobalThresholdIsWorst(t *testing.T) {
	tables := tablesOf(t, "fig4")
	ppl := findTable(t, tables, "fig4-ppl")
	global := cellF(t, ppl, map[string]string{"strategy": "global"}, "ppl")
	perLayer := cellF(t, ppl, map[string]string{"strategy": "per-layer"}, "ppl")
	perToken := cellF(t, ppl, map[string]string{"strategy": "per-token"}, "ppl")
	dense := cellF(t, ppl, map[string]string{"strategy": "dense"}, "ppl")
	if global < perLayer || global < perToken {
		t.Fatalf("global (%v) should be worst: per-layer %v per-token %v", global, perLayer, perToken)
	}
	if perToken < dense-0.01 {
		t.Fatalf("per-token ppl %v below dense %v", perToken, dense)
	}
}

func TestFig6PredictorGap(t *testing.T) {
	tables := tablesOf(t, "fig6")
	tab := findTable(t, tables, "fig6")
	// At 50% GLU density, recall on the ReLU-fied analog must beat the
	// SwiGLU analog.
	rSwiglu := cellF(t, tab, map[string]string{"model": model.Mistral7BSim, "strategy": "glu-predictive", "glu_density": "0.500"}, "pred_recall")
	rRelu := cellF(t, tab, map[string]string{"model": model.ReluFiedSim, "strategy": "glu-predictive", "glu_density": "0.500"}, "pred_recall")
	if rRelu <= rSwiglu {
		t.Fatalf("predictor recall: relu %v should exceed swiglu %v", rRelu, rSwiglu)
	}
}

func TestTable1DIPBeatsBaselines(t *testing.T) {
	tables := tablesOf(t, "tab1")
	tab := findTable(t, tables, "tab1")
	// Orderings that hold even at the miniature test scale (the full
	// DIP-vs-gate separation needs paper scale and aggressive sparsity;
	// see TestTable4 notes).
	name := model.Phi3MedSim
	dense := cellF(t, tab, map[string]string{"model": name, "method": "dense"}, "ppl")
	oracle := cellF(t, tab, map[string]string{"model": name, "method": "glu-oracle"}, "ppl")
	dip := cellF(t, tab, map[string]string{"model": name, "method": "dip"}, "ppl")
	dipLora := cellF(t, tab, map[string]string{"model": name, "method": "dip+lora"}, "ppl")
	up := cellF(t, tab, map[string]string{"model": name, "method": "up"}, "ppl")
	if oracle < dense-0.05 {
		t.Fatalf("oracle ppl %v below dense %v", oracle, dense)
	}
	if oracle > dense*1.1 {
		t.Fatalf("oracle ppl %v should be near dense %v", oracle, dense)
	}
	if dip >= up {
		t.Fatalf("DIP ppl %v should beat up pruning %v", dip, up)
	}
	if dipLora > dip+0.02 {
		t.Fatalf("DIP+LoRA ppl %v should not exceed DIP %v", dipLora, dip)
	}
	// DIP density must sit near the 50% target.
	d := cellF(t, tab, map[string]string{"model": name, "method": "dip"}, "measured_density")
	if d < 0.4 || d > 0.6 {
		t.Fatalf("DIP measured density %v far from 0.5", d)
	}
}

func TestTable2DIPCAWins(t *testing.T) {
	tables := tablesOf(t, "tab2")
	tab := findTable(t, tables, "tab2")
	name := model.Phi3MedSim
	dense := cellF(t, tab, map[string]string{"model": name, "method": "dense"}, "tok_s_@+0.5ppl")
	dipca := cellF(t, tab, map[string]string{"model": name, "method": "dip-ca"}, "tok_s_@+0.5ppl")
	dip := cellF(t, tab, map[string]string{"model": name, "method": "dip"}, "tok_s_@+0.5ppl")
	if dipca <= dense {
		t.Fatalf("DIP-CA throughput %v should beat dense %v", dipca, dense)
	}
	// At miniature scale DIP-CA's perplexity cost can push its qualifying
	// density above plain DIP's, so only require it to stay competitive;
	// the strict DIP-CA > DIP separation is a paper-scale result (see
	// dipbench -exp tab2, where it holds with margin).
	if dipca < 0.7*dip {
		t.Fatalf("DIP-CA throughput %v collapsed relative to DIP %v", dipca, dip)
	}
	sizes := findTable(t, tables, "tab2-sizes")
	gb := cellF(t, sizes, map[string]string{"model": name}, "model_gb")
	if gb < 7 || gb > 8 {
		t.Fatalf("phi3med analog should map to ~7.4 GB, got %v", gb)
	}
}

func TestFig10GammaSweepShape(t *testing.T) {
	tables := tablesOf(t, "fig10")
	sweep := findTable(t, tables, "fig10")
	// Throughput at γ=0.2 must exceed γ=1 (plain DIP).
	t02 := cellF(t, sweep, map[string]string{"gamma": "0.200"}, "tok_s")
	t1 := cellF(t, sweep, map[string]string{"gamma": "1.000"}, "tok_s")
	if t02 <= t1 {
		t.Fatalf("γ=0.2 throughput %v should exceed γ=1 %v", t02, t1)
	}
	// Perplexity at extreme γ (cache dictates everything) must be worse
	// than plain DIP.
	pTiny := cellF(t, sweep, map[string]string{"gamma": "0.001"}, "ppl")
	p1 := cellF(t, sweep, map[string]string{"gamma": "1.000"}, "ppl")
	if pTiny < p1 {
		t.Fatalf("extreme γ ppl %v should be worse than plain DIP %v", pTiny, p1)
	}
}

func TestFig11PolicyOrdering(t *testing.T) {
	tables := tablesOf(t, "fig11")
	tab := findTable(t, tables, "fig11")
	// At the mid density, no-cache ≤ LRU/LFU ≤ Belady in throughput.
	d := "0.600"
	none := cellF(t, tab, map[string]string{"config": "dip-nocache", "density": d}, "tok_s")
	lfu := cellF(t, tab, map[string]string{"config": "dip-lfu", "density": d}, "tok_s")
	bel := cellF(t, tab, map[string]string{"config": "dip-belady", "density": d}, "tok_s")
	if none > lfu {
		t.Fatalf("no-cache %v should not beat LFU %v", none, lfu)
	}
	if lfu > bel*1.0001 {
		t.Fatalf("LFU %v should not beat Belady %v", lfu, bel)
	}
	// Belady hit rate bounds LFU's at equal density.
	hLFU := cellF(t, tab, map[string]string{"config": "dip-lfu", "density": d}, "hit_rate")
	hBel := cellF(t, tab, map[string]string{"config": "dip-belady", "density": d}, "hit_rate")
	if hLFU > hBel+1e-9 {
		t.Fatalf("LFU hit rate %v above Belady %v", hLFU, hBel)
	}
}

func TestFig12FitSane(t *testing.T) {
	tables := tablesOf(t, "fig12")
	fit := findTable(t, tables, "fig12")
	for _, row := range fit.Rows {
		for _, col := range []int{1, 2, 3, 4} {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || v <= 0 || v > 1 {
				t.Fatalf("allocation out of range in row %v", row)
			}
		}
	}
	front := findTable(t, tables, "fig12-front")
	if len(front.Rows) < 2 {
		t.Fatalf("pareto front too small: %d rows", len(front.Rows))
	}
}

func TestFig9Composes(t *testing.T) {
	tables := tablesOf(t, "fig9")
	tab := findTable(t, tables, "fig9")
	// BQ4 memory < dense-fp16 memory; BQ4+DIP memory < BQ4 memory.
	dense := cellF(t, tab, map[string]string{"config": "dense-fp16"}, "memory_mb")
	bq4 := cellF(t, tab, map[string]string{"config": "bq4"}, "memory_mb")
	bq4dip := cellF(t, tab, map[string]string{"config": "bq4+dip@0.50"}, "memory_mb")
	if !(bq4 < dense && bq4dip < bq4) {
		t.Fatalf("memory ordering wrong: dense %v bq4 %v bq4+dip %v", dense, bq4, bq4dip)
	}
	// BQ2 quality worse than BQ4.
	p2 := cellF(t, tab, map[string]string{"config": "bq2"}, "ppl")
	p4 := cellF(t, tab, map[string]string{"config": "bq4"}, "ppl")
	if p4 > p2 {
		t.Fatalf("bq4 ppl %v should beat bq2 %v", p4, p2)
	}
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
