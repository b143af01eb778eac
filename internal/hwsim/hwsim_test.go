package hwsim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

func testModel() *model.Model {
	cfg := model.Config{
		Name: model.Mistral7BSim, Vocab: 39, Dim: 16, Layers: 2, Heads: 2,
		KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}
	return model.New(cfg, 3)
}

func dipGroups() [sparsity.NumGroups]bool {
	var g [sparsity.NumGroups]bool
	g[sparsity.GroupUpGate] = true
	g[sparsity.GroupDown] = true
	return g
}

func denseGroups() [sparsity.NumGroups]bool {
	var g [sparsity.NumGroups]bool
	g[sparsity.GroupUpRows] = true
	g[sparsity.GroupGateRows] = true
	g[sparsity.GroupDown] = true
	return g
}

func TestProbeGroups(t *testing.T) {
	m := testModel()
	gDIP := ProbeGroups(sparsity.NewDIP(0.5), m)
	if !gDIP[sparsity.GroupUpGate] || !gDIP[sparsity.GroupDown] || gDIP[sparsity.GroupUpRows] {
		t.Fatalf("DIP groups = %v", gDIP)
	}
	gDense := ProbeGroups(sparsity.Dense{}, m)
	if !gDense[sparsity.GroupUpRows] || !gDense[sparsity.GroupGateRows] || !gDense[sparsity.GroupDown] || gDense[sparsity.GroupUpGate] {
		t.Fatalf("dense groups = %v", gDense)
	}
}

func TestNewPlanBudgetAccounting(t *testing.T) {
	m := testModel()
	dev := A18Like()
	p, err := NewPlan(m, dev, PlanOpts{Groups: dipGroups()})
	if err != nil {
		t.Fatal(err)
	}
	// Scaled model bytes must match the paper counterpart.
	if math.Abs(p.ModelBytes-PaperModelBytes[model.Mistral7BSim]) > 1e-3*p.ModelBytes {
		t.Fatalf("model bytes %.3g, want %.3g", p.ModelBytes, PaperModelBytes[model.Mistral7BSim])
	}
	if p.CacheBudgetBytes <= 0 {
		t.Fatal("cache budget should be positive at 50% DRAM")
	}
	if p.StaticBytes+p.CacheBudgetBytes > dev.DRAMFraction*p.ModelBytes+1 {
		t.Fatal("plan exceeds DRAM budget")
	}
	// Cache capacities are positive and bounded by the unit universes.
	for l := range p.Caps {
		for g := sparsity.GroupID(0); g < sparsity.NumGroups; g++ {
			if p.NUnits[l][g] == 0 {
				if p.Caps[l][g] != 0 {
					t.Fatal("capacity for unused group")
				}
				continue
			}
			if p.Caps[l][g] < 0 || p.Caps[l][g] > p.NUnits[l][g] {
				// capacity may legitimately exceed universe only by clamp
				// at cache construction; the plan itself should not.
				if p.Caps[l][g] > p.NUnits[l][g] {
					continue // acceptable: cache clamps
				}
				t.Fatalf("capacity %d out of range for %d units", p.Caps[l][g], p.NUnits[l][g])
			}
		}
	}
}

func TestNewPlanRequiresGroups(t *testing.T) {
	m := testModel()
	if _, err := NewPlan(m, A18Like(), PlanOpts{}); err == nil {
		t.Fatal("expected error without groups")
	}
}

func TestTinyDRAMGivesZeroCache(t *testing.T) {
	m := testModel()
	dev := A18Like()
	dev.DRAMFraction = 0.01
	p, err := NewPlan(m, dev, PlanOpts{Groups: dipGroups()})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheBudgetBytes != 0 {
		t.Fatalf("cache budget = %v, want 0", p.CacheBudgetBytes)
	}
}

func TestMeterDenseFromFlash(t *testing.T) {
	// With zero cache, a dense model reads all MLP bytes from Flash every
	// token plus static from DRAM; latency must match hand arithmetic.
	m := testModel()
	dev := A18Like()
	dev.DRAMFraction = 0.01 // forces zero cache budget
	p, err := NewPlan(m, dev, PlanOpts{Groups: denseGroups()})
	if err != nil {
		t.Fatal(err)
	}
	mc := p.NewCache(cache.PolicyNone)
	meter := p.NewMeter()
	scheme := sparsity.Dense{}
	x := make([]float32, m.Cfg.Dim)
	x[0] = 1
	const tokens = 3
	for tok := 0; tok < tokens; tok++ {
		meter.BeginToken()
		for l := range m.Blocks {
			_, ta := scheme.Forward(l, x, m.Blocks[l].MLP, nil)
			meter.AddAccess(mc.Access(l, &ta))
		}
	}
	if meter.Tokens() != tokens {
		t.Fatal("token count wrong")
	}
	bpw := 0.5 * p.MLPByteScale
	wantFlash := float64(m.MLPWeightCount()) * bpw * tokens
	if math.Abs(meter.FlashBytes-wantFlash) > 1e-6*wantFlash {
		t.Fatalf("flash bytes %.4g, want %.4g", meter.FlashBytes, wantFlash)
	}
	wantLatency := (meter.DRAMBytes/dev.DRAMBandwidth + meter.FlashBytes/dev.FlashBandwidth) / tokens
	if math.Abs(meter.Latency()-wantLatency) > 1e-12 {
		t.Fatal("latency arithmetic wrong")
	}
	if math.Abs(meter.Throughput()*meter.Latency()-1) > 1e-9 {
		t.Fatal("throughput is not 1/latency")
	}
}

func TestSparserIsFasterUnderSameCache(t *testing.T) {
	// DIP at lower density must achieve higher simulated throughput than at
	// higher density, all else equal.
	m := testModel()
	run := func(density float64) float64 {
		s := sparsity.NewDIP(density)
		p, err := NewPlan(m, A18Like(), PlanOpts{Groups: ProbeGroups(s, m)})
		if err != nil {
			t.Fatal(err)
		}
		mc := p.NewCache(cache.PolicyLFU)
		meter := p.NewMeter()
		rngState := uint64(7)
		for tok := 0; tok < 50; tok++ {
			meter.BeginToken()
			x := make([]float32, m.Cfg.Dim)
			for i := range x {
				rngState = rngState*6364136223846793005 + 1
				x[i] = float32(int(rngState>>40)%97)/97 - 0.5
			}
			for l := range m.Blocks {
				_, ta := s.Forward(l, x, m.Blocks[l].MLP, mc)
				meter.AddAccess(mc.Access(l, &ta))
			}
		}
		return meter.Throughput()
	}
	fast := run(0.3)
	slow := run(0.9)
	if fast <= slow {
		t.Fatalf("30%% density (%.3g tok/s) not faster than 90%% (%.3g tok/s)", fast, slow)
	}
}

func TestCacheAwareImprovesHitRate(t *testing.T) {
	// DIP-CA must achieve a higher cache hit rate than plain DIP on the
	// same token stream — the core mechanism of Section 5.
	m := testModel()
	run := func(s sparsity.Scheme) float64 {
		p, err := NewPlan(m, A18Like(), PlanOpts{Groups: ProbeGroups(s, m)})
		if err != nil {
			t.Fatal(err)
		}
		mc := p.NewCache(cache.PolicyLFU)
		rngState := uint64(99)
		for tok := 0; tok < 80; tok++ {
			x := make([]float32, m.Cfg.Dim)
			for i := range x {
				rngState = rngState*6364136223846793005 + 1
				x[i] = float32(int(rngState>>40)%97)/97 - 0.5
			}
			for l := range m.Blocks {
				_, ta := s.Forward(l, x, m.Blocks[l].MLP, mc)
				mc.Access(l, &ta)
			}
		}
		return mc.TotalStats().HitRate()
	}
	plain := run(sparsity.NewDIP(0.5))
	ca := run(sparsity.NewDIPCA(0.5, 0.2))
	if ca <= plain {
		t.Fatalf("DIP-CA hit rate %.3f not above DIP %.3f", ca, plain)
	}
}

func TestDeviceAblationDirections(t *testing.T) {
	// More DRAM → faster; faster flash → faster.
	m := testModel()
	s := sparsity.NewDIP(0.5)
	run := func(dev Device) float64 {
		p, err := NewPlan(m, dev, PlanOpts{Groups: ProbeGroups(s, m)})
		if err != nil {
			t.Fatal(err)
		}
		mc := p.NewCache(cache.PolicyLFU)
		meter := p.NewMeter()
		rngState := uint64(5)
		for tok := 0; tok < 60; tok++ {
			meter.BeginToken()
			x := make([]float32, m.Cfg.Dim)
			for i := range x {
				rngState = rngState*6364136223846793005 + 1
				x[i] = float32(int(rngState>>40)%97)/97 - 0.5
			}
			for l := range m.Blocks {
				_, ta := s.Forward(l, x, m.Blocks[l].MLP, mc)
				meter.AddAccess(mc.Access(l, &ta))
			}
		}
		return meter.Throughput()
	}
	base := A18Like()
	big := base
	big.DRAMFraction = 0.8
	if run(big) <= run(base) {
		t.Fatal("more DRAM should increase throughput")
	}
	fastFlash := base
	fastFlash.FlashBandwidth = 2e9
	if run(fastFlash) <= run(base) {
		t.Fatal("faster flash should increase throughput")
	}
}

func TestMeterEmpty(t *testing.T) {
	m := testModel()
	p, _ := NewPlan(m, A18Like(), PlanOpts{Groups: dipGroups()})
	meter := p.NewMeter()
	if meter.Latency() != 0 || meter.Throughput() != 0 {
		t.Fatal("empty meter should report zeros")
	}
}

// A step id that wraps its 32 bits clears every stamp, so a unit stamped by
// the step 2^32 steps back is fetched again, not taken as fetched already.
// The steps are two columns wide, so they stamp; the second column is idle.
func TestStepIdWrapFetchesAgain(t *testing.T) {
	p, err := NewPlan(testModel(), A18Like(), PlanOpts{Groups: dipGroups()})
	if err != nil {
		t.Fatal(err)
	}
	mc := cache.NewModelCache(cache.PolicyNone, p.Caps, p.NUnits)
	ta := &sparsity.TokenAccess{}
	ta.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{3}}
	s := p.NewStep()
	s.Begin(2)
	s.Access(0, ta, mc)
	fresh := s.Seconds()
	s.id = math.MaxUint32 // unit 3 keeps step 1's stamp; the next id wraps to it
	s.Begin(2)
	s.Access(0, ta, mc)
	if got := s.Seconds(); s.id != 1 || got != fresh {
		t.Fatalf("step %d priced %v s, want step 1 and a fresh fetch's %v s", s.id, got, fresh)
	}
}

// A one-column step's fetch is its column's own cache result, so opening
// and pricing one builds no per-unit stamps and allocates nothing; the
// first step wider than one column builds them.
func TestOneColumnStepAllocatesNoStamps(t *testing.T) {
	p, err := NewPlan(testModel(), A18Like(), PlanOpts{Groups: dipGroups()})
	if err != nil {
		t.Fatal(err)
	}
	mc := p.NewCache(cache.PolicyLFU)
	ta := &sparsity.TokenAccess{}
	ta.Groups[sparsity.GroupUpGate] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{0, 5}}
	ta.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{1, 2, 3}}
	s := p.NewStep()
	mt := p.NewMeter()
	if a := testing.AllocsPerRun(20, func() {
		s.Begin(1)
		for l := range p.NUnits {
			s.Access(l, ta, mc)
		}
		mt.ChargeStep(s)
	}); a != 0 {
		t.Fatalf("a one-column step allocates %v objects, want 0", a)
	}
	if s.stamps != nil || s.stamp != nil {
		t.Fatal("a one-column step built per-unit stamps")
	}
	s.Begin(2)
	if len(s.stamps) == 0 || len(s.stamp) != len(p.NUnits) {
		t.Fatal("a two-column step opened without its stamps")
	}
}

// A one-column step's fetch, the column's own cache result, is the fetch
// the stamps give that column alone: twin caches see the same seeded
// accesses (distinct sparse units, or the whole group dense), one priced by
// one-column steps and one by two-column steps whose second column is idle.
func TestOneColumnFetchIsTheStampedFetch(t *testing.T) {
	p, err := NewPlan(testModel(), A18Like(), PlanOpts{Groups: dipGroups()})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	for _, policy := range []cache.Policy{cache.PolicyLRU, cache.PolicyLFU} {
		alone, stamped := p.NewStep(), p.NewStep()
		mcA, mcS := p.NewCache(policy), p.NewCache(policy)
		for tok := 0; tok < 200; tok++ {
			alone.Begin(1)
			stamped.Begin(2)
			for l := range p.NUnits {
				var ta sparsity.TokenAccess
				for _, g := range []sparsity.GroupID{sparsity.GroupUpGate, sparsity.GroupDown} {
					if rng.Intn(8) == 0 {
						ta.Groups[g].Kind = sparsity.AccessDense
						continue
					}
					units := rng.Perm(p.NUnits[l][g])[:1+rng.Intn(p.NUnits[l][g])]
					slices.Sort(units)
					ta.Groups[g] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: units}
				}
				if a, s := alone.Access(l, &ta, mcA), stamped.Access(l, &ta, mcS); a != s {
					t.Fatalf("%v token %d layer %d: cache results %+v and %+v", policy, tok, l, a, s)
				}
				if alone.fetched[l] != stamped.fetched[l] {
					t.Fatalf("%v token %d layer %d: one-column fetch %+v, stamped %+v", policy, tok, l, alone.fetched[l], stamped.fetched[l])
				}
			}
		}
	}
}
