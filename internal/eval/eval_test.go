package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// zoo holds one trained tiny model shared across the package's tests.
var zoo struct {
	m     *model.Model
	tok   *data.Tokenizer
	calib []int
	test  []int
}

func trained(t *testing.T) {
	t.Helper()
	if zoo.m != nil {
		return
	}
	tok := data.NewTokenizer()
	splits := data.NewSplits(61, 14000, 3000)
	cfg := model.Config{
		Name: model.Mistral7BSim, Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 17)
	opts := model.DefaultTrainOpts()
	opts.Steps = 100
	opts.Batch = 2
	opts.SeqLen = 31
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		t.Fatal(err)
	}
	zoo.m, zoo.tok = m, tok
	zoo.calib = tok.Encode(splits.Calib)
	zoo.test = tok.Encode(splits.Test)[:1500]
}

func TestPerplexityUnderSchemeDenseMatchesNilHook(t *testing.T) {
	trained(t)
	pplDense := model.Perplexity(zoo.m, zoo.test, 32, nil)
	ppl, density := PerplexityUnderScheme(zoo.m, sparsity.Dense{}, zoo.test, 32)
	if math.Abs(ppl-pplDense) > 1e-9 {
		t.Fatalf("dense scheme ppl %v != nil hook ppl %v", ppl, pplDense)
	}
	if math.Abs(density-1) > 1e-9 {
		t.Fatalf("dense density = %v", density)
	}
}

func TestSparserIsWorsePPL(t *testing.T) {
	trained(t)
	p80, d80 := PerplexityUnderScheme(zoo.m, sparsity.NewDIP(0.8), zoo.test, 32)
	p30, d30 := PerplexityUnderScheme(zoo.m, sparsity.NewDIP(0.3), zoo.test, 32)
	if p30 <= p80 {
		t.Fatalf("30%% density ppl %v should exceed 80%% density ppl %v", p30, p80)
	}
	if d30 >= d80 {
		t.Fatalf("measured densities inverted: %v vs %v", d30, d80)
	}
}

func TestMCAccuracy(t *testing.T) {
	trained(t)
	// Spelling corruption only needs character statistics, which even the
	// miniature test model learns; agreement needs the paper-scale models.
	items := data.GenerateTask(data.TaskSpelling, 30, tensor.NewRNG(71))
	dense := MCAccuracy(zoo.m, nil, zoo.tok, items)
	if dense < 40 {
		t.Fatalf("trained model near chance on spelling: %v%%", dense)
	}
	aggressive := MCAccuracy(zoo.m, sparsity.NewDIP(0.1), zoo.tok, items)
	if aggressive > dense+10 {
		t.Fatalf("10%% density (%v%%) should not beat dense (%v%%) by much", aggressive, dense)
	}
	if got := MCAccuracy(zoo.m, nil, zoo.tok, nil); got != 0 {
		t.Fatal("empty item list should score 0")
	}
}

func TestSystemEvaluateProducesCoherentPoint(t *testing.T) {
	trained(t)
	pt, err := SystemEvaluate(zoo.m, sparsity.NewDIP(0.5), zoo.test, SystemConfig{
		Device: hwsim.A18Like(), Policy: cache.PolicyLFU, MaxTokens: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.PPL <= 1 || pt.Throughput <= 0 || pt.LatencyS <= 0 {
		t.Fatalf("incoherent point: %+v", pt)
	}
	if pt.HitRate <= 0 || pt.HitRate >= 1 {
		t.Fatalf("hit rate %v out of open interval", pt.HitRate)
	}
	if math.Abs(pt.Density-0.5) > 0.08 {
		t.Fatalf("measured density %v far from target", pt.Density)
	}
	if pt.Scheme != "dip" {
		t.Fatalf("scheme name %q", pt.Scheme)
	}
}

func TestSystemEvaluateBeladyMatchesAccessStream(t *testing.T) {
	trained(t)
	cfgFor := func(p cache.Policy) SystemConfig {
		return SystemConfig{Device: hwsim.A18Like(), Policy: p, MaxTokens: 600}
	}
	dip := sparsity.NewDIP(0.5)
	bel, err := SystemEvaluate(zoo.m, dip, zoo.test, cfgFor(cache.PolicyBelady))
	if err != nil {
		t.Fatal(err)
	}
	lru, err := SystemEvaluate(zoo.m, dip, zoo.test, cfgFor(cache.PolicyLRU))
	if err != nil {
		t.Fatal(err)
	}
	lfu, err := SystemEvaluate(zoo.m, dip, zoo.test, cfgFor(cache.PolicyLFU))
	if err != nil {
		t.Fatal(err)
	}
	// Identical model quality (masks don't depend on the cache)...
	if math.Abs(bel.PPL-lru.PPL) > 1e-9 || math.Abs(bel.PPL-lfu.PPL) > 1e-9 {
		t.Fatal("policy must not affect plain-DIP perplexity")
	}
	// ...but the oracle's hit rate upper-bounds the practical policies.
	if bel.HitRate < lru.HitRate-1e-9 || bel.HitRate < lfu.HitRate-1e-9 {
		t.Fatalf("Belady hit rate %.4f below LRU %.4f or LFU %.4f", bel.HitRate, lru.HitRate, lfu.HitRate)
	}
}

func TestSystemEvaluateRejectsCacheAwareBelady(t *testing.T) {
	trained(t)
	_, err := SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), zoo.test, SystemConfig{
		Device: hwsim.A18Like(), Policy: cache.PolicyBelady, MaxTokens: 200,
	})
	if err == nil {
		t.Fatal("expected rejection of DIP-CA under Belady")
	}
}

func TestDIPCABeatsDIPThroughputAtSimilarPPL(t *testing.T) {
	trained(t)
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, MaxTokens: 800}
	plain, err := SystemEvaluate(zoo.m, sparsity.NewDIP(0.5), zoo.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), zoo.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("DIP: ppl %.3f tput %.3f hit %.3f | DIP-CA: ppl %.3f tput %.3f hit %.3f",
		plain.PPL, plain.Throughput, plain.HitRate, ca.PPL, ca.Throughput, ca.HitRate)
	if ca.Throughput <= plain.Throughput {
		t.Fatalf("DIP-CA throughput %.4f not above DIP %.4f", ca.Throughput, plain.Throughput)
	}
	// The accuracy cost of re-weighting must be modest at γ=0.2.
	if ca.PPL > plain.PPL*1.5 {
		t.Fatalf("DIP-CA ppl %.3f blew up vs DIP %.3f", ca.PPL, plain.PPL)
	}
}

func TestSystemConfigValidateNamesBadField(t *testing.T) {
	base := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		mutate func(*SystemConfig)
		field  string
	}{
		{func(c *SystemConfig) { c.Device.DRAMBandwidth = 0 }, "DRAMBandwidth"},
		{func(c *SystemConfig) { c.Device.FlashBandwidth = -1 }, "FlashBandwidth"},
		{func(c *SystemConfig) { c.Device.DRAMFraction = 0 }, "DRAMFraction"},
		{func(c *SystemConfig) { c.Policy = cache.Policy(99) }, "Policy"},
		{func(c *SystemConfig) { c.BytesPerWeight = -0.5 }, "BytesPerWeight"},
		{func(c *SystemConfig) { c.MaxTokens = -1 }, "MaxTokens"},
		{func(c *SystemConfig) { c.Win = -1 }, "Win"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("bad %s accepted", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("error %q does not name field %s", err, tc.field)
		}
	}
	// SystemEvaluate and the serving stream path both enforce validation.
	if _, err := SystemEvaluate(zoo.m, sparsity.Dense{}, nil, SystemConfig{}); err == nil {
		t.Fatal("SystemEvaluate accepted a zero SystemConfig")
	}
	if _, err := NewStreamWith(zoo.m, sparsity.Dense{}, nil, SystemConfig{}, StreamOpts{}); err == nil {
		t.Fatal("NewStreamWith accepted a zero SystemConfig")
	}
}

// The Stream API is the machinery under SystemEvaluate; stepping one by
// hand must land on the same point, and its incremental (KV-cached)
// perplexity must agree with the windowed teacher-forced evaluation.
func TestStreamStepsMatchSystemEvaluate(t *testing.T) {
	trained(t)
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, MaxTokens: 640}
	st, err := NewStream(zoo.m, sparsity.NewDIPCA(0.5, 0.2), zoo.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for st.Step() {
		steps++
	}
	if steps != st.TotalTokens() || !st.Done() || st.Pos() != steps {
		t.Fatalf("stepped %d, total %d, pos %d", steps, st.TotalTokens(), st.Pos())
	}
	pt, err := SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), zoo.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Point() != pt {
		t.Fatalf("manual stepping %+v != SystemEvaluate %+v", st.Point(), pt)
	}
	hits, misses := st.Traffic()
	if hits <= 0 || misses <= 0 {
		t.Fatalf("traffic %d/%d", hits, misses)
	}
	// Incremental decoding vs teacher-forced windows: same math, only
	// float accumulation order differs.
	ppl := model.Perplexity(zoo.m, zoo.test[:640], zoo.m.Cfg.MaxSeq, Hook(zoo.m, sparsity.NewDIP(0.5), HookOpts{}))
	stDip, err := NewStream(zoo.m, sparsity.NewDIP(0.5), zoo.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for stDip.Step() {
	}
	if math.Abs(stDip.Point().PPL-ppl)/ppl > 1e-3 {
		t.Fatalf("incremental ppl %v far from windowed ppl %v", stDip.Point().PPL, ppl)
	}
}

// A stream gives a Dense scheme its own MLP storage, so once it has decoded
// a whole window (KV slots and buffers built) a Dense Step allocates
// nothing, exactly like a DIP-CA one, whose scheme owns its scratch.
func TestStreamStepAllocatesNothingAfterTheFirstWindow(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
	for _, s := range []sparsity.Scheme{sparsity.Dense{}, sparsity.NewDIPCA(0.5, 0.2)} {
		st, err := NewStream(zoo.m, s, zoo.test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < zoo.m.Cfg.MaxSeq; i++ {
			st.Step()
		}
		if a := testing.AllocsPerRun(20, func() { st.Step() }); a != 0 {
			t.Errorf("%s: Stream.Step allocates %v objects after the first window, want 0", s.Name(), a)
		}
	}
}

func TestBestThroughput(t *testing.T) {
	points := []Point{
		{PPL: 5.0, Throughput: 1.0},
		{PPL: 5.4, Throughput: 2.0},
		{PPL: 6.0, Throughput: 3.0},
	}
	best, ok := BestThroughput(points, 5.5)
	if !ok || best.Throughput != 2.0 {
		t.Fatalf("best = %+v ok=%v", best, ok)
	}
	if _, ok := BestThroughput(points, 4.0); ok {
		t.Fatal("no point should qualify")
	}
}

func TestDensityAccumulator(t *testing.T) {
	trained(t)
	acc := NewDensityAccumulator(zoo.m)
	if acc.Mean() != 0 {
		t.Fatal("empty accumulator should be 0")
	}
	var ta sparsity.TokenAccess
	ta.Groups[sparsity.GroupUpRows] = sparsity.GroupAccess{Kind: sparsity.AccessDense}
	ta.Groups[sparsity.GroupGateRows] = sparsity.GroupAccess{Kind: sparsity.AccessDense}
	ta.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessDense}
	acc.Add(&ta)
	if acc.Mean() != 1 {
		t.Fatalf("mean = %v", acc.Mean())
	}
}

// Restart rewinds a stream for a from-scratch re-prefill (the serving
// engine's destructive-fault recovery): the rerun's CE, prediction count,
// and density must equal a fresh stream's bit for bit, while Decoded keeps
// counting the discarded prefix that Pos forgets.
func TestStreamRestartReplaysFromScratch(t *testing.T) {
	trained(t)
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
	toks := zoo.test[:96]
	st, err := NewStream(zoo.m, sparsity.NewDIP(0.5), toks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !st.Step() {
			t.Fatal("stream drained during the discarded prefix")
		}
	}
	st.Restart()
	if st.Pos() != 0 || st.Decoded() != 10 {
		t.Fatalf("after Restart: Pos %d (want 0), Decoded %d (want 10)", st.Pos(), st.Decoded())
	}
	for st.Step() {
	}
	fresh, err := NewStream(zoo.m, sparsity.NewDIP(0.5), toks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for fresh.Step() {
	}
	ceA, pA := st.CE()
	ceB, pB := fresh.CE()
	if ceA != ceB || pA != pB {
		t.Fatalf("restarted CE (%v, %d) != fresh CE (%v, %d)", ceA, pA, ceB, pB)
	}
	if a, b := st.Point(), fresh.Point(); a.PPL != b.PPL || a.Density != b.Density {
		t.Fatalf("restarted Point diverged from fresh run:\nrestarted %+v\nfresh     %+v", a, b)
	}
	if st.Pos() != 96 || st.Decoded() != 96+10 {
		t.Fatalf("final Pos %d / Decoded %d, want 96 / 106", st.Pos(), st.Decoded())
	}
}

// Restart is a tick-boundary operation: a deferred stream with uncommitted
// accesses must refuse it, exactly like Release.
func TestStreamRestartPanicsOnUncommittedAccesses(t *testing.T) {
	trained(t)
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
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
	if !st.Step() {
		t.Fatal("first Step failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Restart on an uncommitted deferred stream must panic")
		}
	}()
	st.Restart()
}
