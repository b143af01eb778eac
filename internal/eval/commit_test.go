package eval

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/hwsim"
	"repro/internal/sparsity"
)

// stepBench is one lockstep sub-step under test: a plan pricing only the
// down group, a shared cache holding capDown of its units at layer 0, and
// the step that prices commits to it.
type stepBench struct {
	plan *hwsim.Plan
	mc   *cache.ModelCache
	step *hwsim.Step
}

func newStepBench(t *testing.T, capDown int) *stepBench {
	t.Helper()
	trained(t)
	var groups [sparsity.NumGroups]bool
	groups[sparsity.GroupDown] = true
	plan, err := hwsim.NewPlan(zoo.m, hwsim.A18Like(), hwsim.PlanOpts{Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	caps := make([][sparsity.NumGroups]int, len(plan.NUnits))
	caps[0][sparsity.GroupDown] = capDown
	return &stepBench{plan: plan, mc: cache.NewModelCache(cache.PolicyLRU, caps, plan.NUnits), step: plan.NewStep()}
}

// column returns a stream on the bench's cache whose pending token
// lists units of the down group at layer 0 and nothing elsewhere, as if it
// had just stepped.
func (b *stepBench) column(t *testing.T, units ...int) *Stream {
	t.Helper()
	st, err := NewStreamWith(zoo.m, sparsity.Dense{}, zoo.test[:32], SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLRU},
		StreamOpts{Plan: b.plan, Cache: b.mc})
	if err != nil {
		t.Fatal(err)
	}
	st.pending[0].Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: units}
	st.dirty = true
	return st
}

// seconds is the step price Appendix A's byte model gives width columns
// that fetch dram units from DRAM and flash units from flash, each unit
// once: the static weights stream once and each column reads half its KV.
func (b *stepBench) seconds(width, dram, flash int) float64 {
	p := b.plan
	ub := p.UnitBytes(sparsity.GroupDown)
	dramBytes := (p.StaticBytes - p.KVBytes) + float64(width)*p.KVBytes/2 + float64(dram)*ub
	return dramBytes/p.Dev.DRAMBandwidth + float64(flash)*ub/p.Dev.FlashBandwidth
}

// commit commits cols as one sub-step and checks the price against want
// and that every column's latency is the whole step, bit for bit.
func (b *stepBench) commit(t *testing.T, want float64, cols ...*Stream) {
	t.Helper()
	got := Commit(cols, b.step)
	if math.Abs(got-want) > 1e-12*want {
		t.Fatalf("step priced %.9g s, want %.9g s", got, want)
	}
	for i, st := range cols {
		if l := st.Point().LatencyS; math.Float64bits(l) != math.Float64bits(got) {
			t.Fatalf("column %d latency %v, want the whole step %v", i, l, got)
		}
	}
}

// traffic fails unless st counted hits and misses on the cache.
func traffic(t *testing.T, st *Stream, hits, misses int64) {
	t.Helper()
	if h, m := st.Traffic(); h != hits || m != misses {
		t.Fatalf("column traffic %d hits / %d misses, want %d / %d", h, m, hits, misses)
	}
}

// Columns that list the same units fetch them once: four of them price the
// step's flash bytes as one column's, while each still counts its own cache
// traffic (the first misses and admits, the rest hit).
func TestCommitFetchesSharedUnitsOnce(t *testing.T) {
	b := newStepBench(t, 4)
	cols := []*Stream{b.column(t, 1, 2, 3), b.column(t, 1, 2, 3), b.column(t, 1, 2, 3), b.column(t, 1, 2, 3)}
	b.commit(t, b.seconds(4, 0, 3), cols...)
	traffic(t, cols[0], 0, 3)
	for _, st := range cols[1:] {
		traffic(t, st, 3, 0)
	}
}

// Columns with disjoint units fetch every one of them: the step's unit
// bytes are the sum of the columns', as when each paid its own.
func TestCommitPricesDisjointUnitsAsTheirSum(t *testing.T) {
	b := newStepBench(t, 4)
	b.commit(t, b.seconds(3, 0, 6), b.column(t, 0, 1), b.column(t, 2, 3), b.column(t, 4, 5))
}

// A unit is priced where it was when its first toucher committed: resident
// then, it comes from DRAM for the whole step, although the next column's
// admissions evict it and the third column misses it in the cache.
func TestCommitPricesAUnitAtItsFirstTouch(t *testing.T) {
	b := newStepBench(t, 4)
	b.mc.Access(0, &sparsity.TokenAccess{Groups: [sparsity.NumGroups]sparsity.GroupAccess{
		sparsity.GroupDown: {Kind: sparsity.AccessSparse, Units: []int{0, 1, 2, 3}},
	}})
	first, evictor, late := b.column(t, 0), b.column(t, 4, 5, 6, 7), b.column(t, 0)
	b.commit(t, b.seconds(3, 1, 4), first, evictor, late)
	traffic(t, first, 1, 0)
	traffic(t, evictor, 0, 4)
	traffic(t, late, 0, 1)
}

// A one-column sub-step is priced as the stream's own Step prices its
// token: a stream decoded and committed alone every token ends bit-identical to
// the coupled stream SystemEvaluate runs, for a sparse, a dense and a mixed
// scheme (GatePrune reads the gate rows densely).
func TestOneColumnCommitMatchesSystemEvaluate(t *testing.T) {
	trained(t)
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: 32}
	toks := zoo.test[:96]
	for _, mk := range []func() sparsity.Scheme{
		func() sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func() sparsity.Scheme { return sparsity.Dense{} },
		func() sparsity.Scheme { return &sparsity.GatePrune{Rho: 0.5} },
	} {
		solo, err := SystemEvaluate(zoo.m, mk(), toks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := systemPlan(zoo.m, mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStreamWith(zoo.m, mk(), toks, cfg, StreamOpts{Plan: plan, Cache: plan.NewCache(cfg.Policy)})
		if err != nil {
			t.Fatal(err)
		}
		step := plan.NewStep()
		for st.Decode() {
			Commit([]*Stream{st}, step)
		}
		if got := st.Point(); got != solo {
			t.Fatalf("%s: one-column commits diverged from SystemEvaluate:\ngot  %+v\nwant %+v", solo.Scheme, got, solo)
		}
	}
}
