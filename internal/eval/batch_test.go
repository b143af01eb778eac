package eval

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/hwsim"
	"repro/internal/sparsity"
)

func batchSysCfg() SystemConfig {
	return SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: 16}
}

// BatchStep over a set of independent streams must be bit-identical to
// stepping each stream alone: same CE sums, prediction counts, cache
// traffic, and final KPI points — with unequal stream lengths, so the
// batch drains (finished streams are skipped) and window boundaries land
// on different sub-steps per stream.
func TestBatchStepMatchesPerStreamStepBitForBit(t *testing.T) {
	trained(t)
	cfg := batchSysCfg()
	build := func(i int) (*Stream, error) {
		n := 48 + 16*(i%3) // 3–5 windows of 16
		return NewStream(zoo.m, sparsity.NewDIPCA(0.5, 0.2), zoo.test[i*160:i*160+n], cfg)
	}
	const B = 4
	batched := make([]*Stream, B)
	solo := make([]*Stream, B)
	for i := 0; i < B; i++ {
		var err error
		if batched[i], err = build(i); err != nil {
			t.Fatal(err)
		}
		if solo[i], err = build(i); err != nil {
			t.Fatal(err)
		}
	}
	var arena BatchArena
	steps := 0
	for BatchStep(batched, &arena) > 0 {
		steps++
		if steps > 10000 {
			t.Fatal("BatchStep never drained the batch")
		}
	}
	for _, st := range solo {
		for st.Step() {
		}
	}
	for i := 0; i < B; i++ {
		bc, bp := batched[i].CE()
		sc, sp := solo[i].CE()
		if bc != sc || bp != sp {
			t.Fatalf("stream %d CE diverged: batched (%v, %d) vs solo (%v, %d)", i, bc, bp, sc, sp)
		}
		bh, bm := batched[i].Traffic()
		sh, sm := solo[i].Traffic()
		if bh != sh || bm != sm {
			t.Fatalf("stream %d traffic diverged: batched (%d, %d) vs solo (%d, %d)", i, bh, bm, sh, sm)
		}
		if batched[i].Point() != solo[i].Point() {
			t.Fatalf("stream %d point diverged:\nbatched %+v\nsolo    %+v", i, batched[i].Point(), solo[i].Point())
		}
		if !batched[i].Done() {
			t.Fatalf("stream %d not drained", i)
		}
	}
	// The drain must have taken exactly as many fused steps as the longest
	// stream has tokens (shorter streams drop out, the batch keeps going).
	if want := solo[2].total; steps != want {
		t.Fatalf("drained in %d fused steps, want %d (longest stream)", steps, want)
	}
}

// A batch mixing schemes (fused DIP columns next to a dense column) must
// still match per-stream stepping — the scheme dispatch falls back without
// breaking per-stream accounting.
func TestBatchStepMixedSchemesMatchesPerStream(t *testing.T) {
	trained(t)
	cfg := batchSysCfg()
	mk := func(i int) sparsity.Scheme {
		if i == 1 {
			return sparsity.Dense{}
		}
		return sparsity.NewDIP(0.5)
	}
	const B = 3
	batched := make([]*Stream, B)
	solo := make([]*Stream, B)
	for i := 0; i < B; i++ {
		var err error
		if batched[i], err = NewStream(zoo.m, mk(i), zoo.test[i*100:i*100+32], cfg); err != nil {
			t.Fatal(err)
		}
		if solo[i], err = NewStream(zoo.m, mk(i), zoo.test[i*100:i*100+32], cfg); err != nil {
			t.Fatal(err)
		}
	}
	var arena BatchArena
	for BatchStep(batched, &arena) > 0 {
	}
	for _, st := range solo {
		for st.Step() {
		}
	}
	for i := 0; i < B; i++ {
		if batched[i].Point() != solo[i].Point() {
			t.Fatalf("stream %d point diverged:\nbatched %+v\nsolo    %+v", i, batched[i].Point(), solo[i].Point())
		}
	}
}

// Deferred streams must refuse a fused step while accesses are pending,
// exactly like Step.
func TestBatchStepPanicsOnUncommittedDeferredStream(t *testing.T) {
	trained(t)
	cfg := batchSysCfg()
	plan, err := hwsim.NewPlan(zoo.m, cfg.Device, hwsim.PlanOpts{
		Groups: hwsim.ProbeGroups(sparsity.NewDIP(0.5), zoo.m),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStreamWith(zoo.m, sparsity.NewDIP(0.5), zoo.test[:32], cfg, StreamOpts{
		Plan: plan, Cache: plan.NewCache(cfg.Policy), Deferred: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var arena BatchArena
	if n := BatchStep([]*Stream{st}, &arena); n != 1 {
		t.Fatalf("first BatchStep advanced %d streams", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BatchStep on an uncommitted deferred stream must panic")
		}
	}()
	BatchStep([]*Stream{st}, &arena)
}
