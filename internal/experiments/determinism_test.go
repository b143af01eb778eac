package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// renderAll renders a driver's tables to one string.
func renderAll(t *testing.T, run func(*Lab) ([]*Table, error)) string {
	t.Helper()
	tables, err := run(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range tables {
		tab.Render(&buf)
	}
	return buf.String()
}

// The parallelism contract: a driver run with the pool pinned to one worker
// and a run fanned out over many workers must produce bit-identical tables
// — every grid point is an independent deterministic computation collected
// in index order, and the tensor/nn layers preserve per-element accumulation
// order regardless of blocking.
func TestParallelRunsMatchSerialBitForBit(t *testing.T) {
	defer parallel.SetProcs(parallel.Procs())
	many := runtime.NumCPU() * 4 // force real fan-out even on small machines
	if many < 8 {
		many = 8
	}

	// Warm lab artifacts under the parallel pool first, so both passes see
	// identical memoized models (artifact builds are order-independent by
	// construction — each is seeded by its own key).
	parallel.SetProcs(many)
	parTab2 := renderAll(t, Table2)
	parPPL := renderAll(t, Fig10)
	parTrends := renderAll(t, Fig2)
	parAbl := renderAll(t, AblAlloc)
	parFig11 := renderAll(t, Fig11)
	parTab6 := renderAll(t, Table6)

	parallel.SetProcs(1)
	serTab2 := renderAll(t, Table2)
	serPPL := renderAll(t, Fig10)
	serTrends := renderAll(t, Fig2)
	serAbl := renderAll(t, AblAlloc)
	serFig11 := renderAll(t, Fig11)
	serTab6 := renderAll(t, Table6)

	for _, c := range []struct{ name, ser, par string }{
		{"tab2", serTab2, parTab2},
		{"fig10", serPPL, parPPL},
		{"fig2", serTrends, parTrends},
		{"abl-alloc", serAbl, parAbl},
		{"fig11", serFig11, parFig11},
		{"tab6", serTab6, parTab6},
	} {
		if c.ser != c.par {
			t.Errorf("%s: parallel output differs from serial output\n--- serial ---\n%s\n--- parallel ---\n%s", c.name, c.ser, c.par)
		}
	}
}
