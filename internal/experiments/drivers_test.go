package experiments

import (
	"strconv"
	"testing"

	"repro/internal/model"
)

// Focused shape tests on the tables TestTablesGolden pins; both read the
// same memoized tables (tablesOf).

func TestTable4AggressiveSparsityOrdering(t *testing.T) {
	tables := tablesOf(t, "tab4")
	tab := findTable(t, tables, "tab4")
	name := model.Phi3MedSim
	dense := cellF(t, tab, map[string]string{"model": name, "method": "dense"}, "ppl")
	oracle := cellF(t, tab, map[string]string{"model": name, "method": "glu-oracle"}, "ppl")
	dip := cellF(t, tab, map[string]string{"model": name, "method": "dip"}, "ppl")
	up := cellF(t, tab, map[string]string{"model": name, "method": "up"}, "ppl")
	// At 40% density the oracle stays near dense while real methods pay.
	if oracle > dense*1.15 {
		t.Fatalf("oracle ppl %v far from dense %v at 40%%", oracle, dense)
	}
	if dip <= dense {
		t.Fatalf("DIP at 40%% (%v) should cost perplexity over dense (%v)", dip, dense)
	}
	// Up pruning (scoring by partial activations) trails DIP at aggressive
	// sparsity — the Table 4 shape that survives miniature scale.
	if dip >= up {
		t.Fatalf("DIP %v should beat up pruning %v at 40%%", dip, up)
	}
}

func TestTable5TaskSpread(t *testing.T) {
	tables := tablesOf(t, "tab5")
	tab := findTable(t, tables, "tab5")
	// Every accuracy is a valid percentage and the dense model beats 4-way
	// chance on the character-statistics task.
	for _, row := range tab.Rows {
		acc, err := strconv.ParseFloat(row[3], 64)
		if err != nil || acc < 0 || acc > 100 {
			t.Fatalf("bad accuracy row %v", row)
		}
	}
	spelling := cellF(t, tab, map[string]string{
		"model": model.Phi3MedSim, "method": "dense", "task": "spelling"}, "acc_%")
	if spelling < 40 {
		t.Fatalf("dense spelling accuracy %v near chance", spelling)
	}
}

func TestTables6And7Monotonicity(t *testing.T) {
	t6 := tablesOf(t, "tab6")
	tab6 := findTable(t, t6, "tab6")
	// Dense throughput strictly increases with DRAM size.
	small := cellF(t, tab6, map[string]string{"device": "dram-2gb", "method": "dense"}, "tok_s_@+0.5ppl")
	big := cellF(t, tab6, map[string]string{"device": "dram-6gb", "method": "dense"}, "tok_s_@+0.5ppl")
	if big <= small {
		t.Fatalf("dense throughput should grow with DRAM: %v -> %v", small, big)
	}
	t7 := tablesOf(t, "tab7")
	tab7 := findTable(t, t7, "tab7")
	slow := cellF(t, tab7, map[string]string{"device": "flash-0.5GBs", "method": "dense"}, "tok_s_@+0.5ppl")
	fast := cellF(t, tab7, map[string]string{"device": "flash-2GBs", "method": "dense"}, "tok_s_@+0.5ppl")
	if fast <= slow {
		t.Fatalf("dense throughput should grow with flash speed: %v -> %v", slow, fast)
	}
	// Flash is the bottleneck: 4× bandwidth buys ≥2× throughput for dense.
	if fast < 2*slow {
		t.Fatalf("flash scaling too weak: %v vs %v", fast, slow)
	}
}

func TestAblAllocNegativeFinding(t *testing.T) {
	tables := tablesOf(t, "abl-alloc")
	tab := findTable(t, tables, "abl-alloc")
	uni := cellF(t, tab, map[string]string{"allocation": "uniform", "density": "0.500"}, "tok_s")
	wtd := cellF(t, tab, map[string]string{"allocation": "trace-weighted", "density": "0.500"}, "tok_s")
	// The paper's negative finding: no *significant* improvement. Allow
	// ±15% either way but flag a large swing in either direction.
	ratio := wtd / uni
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("non-uniform allocation changed throughput by %.0f%%; expected a null result", 100*(ratio-1))
	}
	// Quality must be identical — allocation never touches the masks'
	// inputs for plain DIP.
	puni := cellF(t, tab, map[string]string{"allocation": "uniform", "density": "0.500"}, "ppl")
	pwtd := cellF(t, tab, map[string]string{"allocation": "trace-weighted", "density": "0.500"}, "ppl")
	if puni != pwtd {
		t.Fatalf("allocation changed plain-DIP perplexity: %v vs %v", puni, pwtd)
	}
}

func TestFig14CoversOtherAnalogs(t *testing.T) {
	tables := tablesOf(t, "fig14")
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	for _, tab := range tables {
		if len(tab.Rows) < 3 {
			t.Fatalf("table %s too small", tab.ID)
		}
	}
}
