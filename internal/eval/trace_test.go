package eval

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// dram2GB is Table 6's smallest DRAM: a second device for the oracles.
var dram2GB = hwsim.Device{Name: "dram-2gb", DRAMBandwidth: 60e9, FlashBandwidth: 1e9, DRAMFraction: 0.27}

// streamBits is everything a drained stream reports, as raw bits.
func streamBits(st *Stream) [9]uint64 {
	p := st.Point()
	ce, preds := st.CE()
	hits, misses := st.Traffic()
	f := math.Float64bits
	return [9]uint64{f(p.Density), f(p.PPL), f(p.Throughput), f(p.HitRate), f(p.LatencyS),
		f(ce), uint64(preds), uint64(hits), uint64(misses)}
}

func sameStream(t *testing.T, what string, got, want *Stream) {
	t.Helper()
	if got.Point().Scheme != want.Point().Scheme || streamBits(got) != streamBits(want) {
		t.Fatalf("%s: replay %+v (bits %x) != coupled %+v (bits %x)",
			what, got.Point(), streamBits(got), want.Point(), streamBits(want))
	}
}

// oracleSchemes are the schemes the oracles cover, one fresh instance per
// call: every table family whose masks do not read the cache.
func oracleSchemes(t *testing.T) []func() sparsity.Scheme {
	t.Helper()
	trained(t)
	cats := sparsity.CollectStats(zoo.m, zoo.calib, 32, 256).CATSThresholds(0.35)
	return []func() sparsity.Scheme{
		func() sparsity.Scheme { return sparsity.Dense{} },
		func() sparsity.Scheme { return &sparsity.GLUPrune{RhoGLU: 0.4} },
		func() sparsity.Scheme { return &sparsity.UpPrune{Rho: 0.35} },
		func() sparsity.Scheme { return &sparsity.CATS{Thresholds: cats} },
		func() sparsity.Scheme { return sparsity.NewDIP(0.5) },
	}
}

// One recorded pass, replayed on every (device, policy), equals the coupled
// stream SystemEvaluate runs for that system, bit for bit.
func TestReplayMatchesCoupledStreamBitForBit(t *testing.T) {
	for _, mk := range oracleSchemes(t) {
		rec := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, MaxTokens: 320}
		tr, err := Record(zoo.m, mk(), zoo.test, rec)
		if err != nil {
			t.Fatal(err)
		}
		groups := hwsim.ProbeGroups(mk(), zoo.m)
		for _, dev := range []hwsim.Device{hwsim.A18Like(), dram2GB} {
			plan, err := hwsim.NewPlan(zoo.m, dev, hwsim.PlanOpts{Groups: groups})
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []cache.Policy{cache.PolicyNone, cache.PolicyLRU, cache.PolicyLFU} {
				cfg := rec
				cfg.Device, cfg.Policy = dev, policy
				want, err := NewStream(zoo.m, mk(), zoo.test, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for want.Step() {
				}
				sameStream(t, mk().Name()+"/"+dev.Name+"/"+policy.String(), Replay(tr, plan, policy), want)
			}
		}
	}
}

// refBelady is the two-pass Belady evaluation Record and Replay replace: a
// recording pass that keeps each (layer, group) access stream, then a
// second decode coupled to a Belady cache whose future is that recording.
func refBelady(t *testing.T, s sparsity.Scheme, cfg SystemConfig) *Stream {
	t.Helper()
	plan, err := systemPlan(zoo.m, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens, win, total := evalWindow(zoo.m, zoo.test, cfg)
	streams := map[[2]int][][]int{}
	var dense sparsity.DenseScratch
	rec := &Stream{m: zoo.m, s: s, tokens: tokens, win: win, total: total}
	rec.hook = func(layer int, x tensor.Vec) tensor.Vec {
		y, ta := sparsity.ForwardColumn(layer, s, x, zoo.m.Blocks[layer].MLP, nil, &dense)
		for g, a := range ta.Groups {
			k := [2]int{layer, g}
			switch a.Kind {
			case sparsity.AccessSparse:
				streams[k] = append(streams[k], append([]int(nil), a.Units...))
			case sparsity.AccessDense:
				streams[k] = append(streams[k], nil)
			}
		}
		return y
	}
	for rec.Step() {
	}
	mc := plan.NewCache(cache.PolicyBelady)
	mc.SetFuture(func(l int, g sparsity.GroupID) [][]int { return streams[[2]int{l, int(g)}] })
	st := new(Stream).couple(zoo.m, s, tokens, win, total, plan, mc)
	for st.Step() {
	}
	return st
}

// Belady replayed from the trace equals the two-pass oracle, and
// SystemEvaluate's Belady point is that replay's.
func TestReplayBeladyMatchesTwoPassOracle(t *testing.T) {
	for _, mk := range oracleSchemes(t) {
		for _, dev := range []hwsim.Device{hwsim.A18Like(), dram2GB} {
			cfg := SystemConfig{Device: dev, Policy: cache.PolicyBelady, MaxTokens: 320}
			tr, err := Record(zoo.m, mk(), zoo.test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := systemPlan(zoo.m, mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := Replay(tr, plan, cache.PolicyBelady)
			sameStream(t, mk().Name()+"/"+dev.Name+"/belady", got, refBelady(t, mk(), cfg))
			pt, err := SystemEvaluate(zoo.m, mk(), zoo.test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pt != got.Point() {
				t.Fatalf("SystemEvaluate %+v != replay %+v", pt, got.Point())
			}
		}
	}
}

func TestRecordRejectsCacheAwareSchemes(t *testing.T) {
	trained(t)
	if _, err := Record(zoo.m, sparsity.NewDIPCA(0.5, 0.2), zoo.test, SystemConfig{Device: hwsim.A18Like()}); err == nil {
		t.Fatal("Record accepted DIP-CA")
	}
	if _, err := NewStream(zoo.m, sparsity.NewDIP(0.5), zoo.test, SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyBelady}); err == nil {
		t.Fatal("NewStream accepted Belady, which has no future to read")
	}
}

// tinyModel is an untrained two-layer model: enough to lay out a plan.
func tinyModel() *model.Model {
	return model.New(model.Config{
		Name: "tiny", Vocab: 8, Dim: 8, Layers: 2, Heads: 2, KVHeads: 1, DFF: 16, MaxSeq: 8, Act: nn.ActSiLU,
	}, 1)
}

// syntheticTrace wraps generated per-(token, layer) accesses as a trace of m.
func syntheticTrace(m *model.Model, acc []sparsity.TokenAccess) *Trace {
	return &Trace{st: Stream{m: m, s: sparsity.Dense{}, acc: NewDensityAccumulator(m)}, acc: acc}
}

func TestTraceLayerWeights(t *testing.T) {
	m := tinyModel()
	var acc []sparsity.TokenAccess
	// Layer 0 touches 3 units per token, layer 1 touches 1; dense groups
	// do not count.
	for i := 0; i < 10; i++ {
		var ta, tb sparsity.TokenAccess
		ta.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{1, 2, 3}}
		ta.Groups[sparsity.GroupUpRows] = sparsity.GroupAccess{Kind: sparsity.AccessDense}
		tb.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{4}}
		acc = append(acc, ta, tb)
	}
	w := syntheticTrace(m, acc).LayerWeights()
	if math.Abs(w[0]+w[1]-2) > 1e-9 {
		t.Fatalf("weights not mean-1 normalized: %v", w)
	}
	if math.Abs(w[0]/w[1]-3) > 1e-9 {
		t.Fatalf("weight ratio = %v, want 3", w[0]/w[1])
	}
	for _, x := range syntheticTrace(m, nil).LayerWeights() {
		if x != 1 {
			t.Fatal("an empty trace must weight layers uniformly")
		}
	}
}

// FuzzReplay holds Replay to the cache and meter driven by hand over
// generated unit streams: per token BeginToken, then each layer's access in
// layer order, and a Belady group's future gathered per (layer, group) the
// way the recording pass gathered it, one entry per access.
func FuzzReplay(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(0), uint8(2))
	f.Add(uint64(7), uint8(40), uint8(3), uint8(5))
	f.Add(uint64(3), uint8(0), uint8(3), uint8(9))
	f.Add(uint64(48), uint8(34), uint8(3), uint8(9))
	m := tinyModel()
	f.Fuzz(func(t *testing.T, seed uint64, ntok, policyByte, fill uint8) {
		dev := hwsim.A18Like()
		dev.DRAMFraction = 0.05 + float64(fill%10)/10
		var all [sparsity.NumGroups]bool
		for g := range all {
			all[g] = true
		}
		plan, err := hwsim.NewPlan(m, dev, hwsim.PlanOpts{Groups: all})
		if err != nil {
			t.Fatal(err)
		}
		layers, rng := len(m.Blocks), tensor.NewRNG(seed)
		acc := make([]sparsity.TokenAccess, int(ntok)*layers)
		for i := range acc {
			for g := range acc[i].Groups {
				a := &acc[i].Groups[g]
				switch rng.Intn(4) {
				case 0:
				case 1:
					a.Kind = sparsity.AccessDense
				default:
					a.Kind = sparsity.AccessSparse
					for u := 0; u < plan.NUnits[i%layers][g]; u++ {
						if rng.Intn(3) == 0 {
							a.Units = append(a.Units, u)
						}
					}
				}
			}
		}
		policy := cache.Policy(policyByte % 4)
		got := Replay(syntheticTrace(m, acc), plan, policy)

		mc := plan.NewCache(policy)
		if policy == cache.PolicyBelady {
			streams := map[[2]int][][]int{}
			for i := range acc {
				for g, a := range acc[i].Groups {
					k := [2]int{i % layers, g}
					switch a.Kind {
					case sparsity.AccessSparse:
						streams[k] = append(streams[k], a.Units)
					case sparsity.AccessDense:
						streams[k] = append(streams[k], nil)
					}
				}
			}
			mc.SetFuture(func(l int, g sparsity.GroupID) [][]int { return streams[[2]int{l, int(g)}] })
		}
		meter := plan.NewMeter()
		var hits, misses int64
		for i := range acc {
			if i%layers == 0 {
				meter.BeginToken()
			}
			res := mc.Access(i%layers, &acc[i])
			meter.AddAccess(res)
			for g := range res.HitUnits {
				hits += int64(res.HitUnits[g])
				misses += int64(res.MissUnits[g])
			}
		}
		if h, m := got.Traffic(); h != hits || m != misses {
			t.Fatalf("traffic %d/%d, want %d/%d", h, m, hits, misses)
		}
		if got.Cache().TotalStats() != mc.TotalStats() || got.Cache().Occupancy() != mc.Occupancy() {
			t.Fatalf("cache %+v (%d resident), want %+v (%d resident)",
				got.Cache().TotalStats(), got.Cache().Occupancy(), mc.TotalStats(), mc.Occupancy())
		}
		if p := got.Point(); math.Float64bits(p.LatencyS) != math.Float64bits(meter.Latency()) {
			t.Fatalf("latency %v, want %v", p.LatencyS, meter.Latency())
		}
	})
}
