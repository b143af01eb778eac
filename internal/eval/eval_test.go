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

// Uncoupled and coupled evaluation read a window length by one rule
// (model.Model.Window: 0, or beyond MaxSeq, is MaxSeq) and step the same
// decoder, so for a scheme that does not read the cache they agree on
// perplexity and density bit for bit.
func TestPerplexityUnderSchemeMatchesSystemEvaluate(t *testing.T) {
	trained(t)
	maxSeq := zoo.m.Cfg.MaxSeq
	for _, s := range []sparsity.Scheme{sparsity.Dense{}, sparsity.NewDIP(0.5)} {
		for _, win := range []int{0, 7, maxSeq / 2, maxSeq, maxSeq + 8} {
			ppl, density := PerplexityUnderScheme(zoo.m, s, zoo.test, win)
			pt, err := SystemEvaluate(zoo.m, s, zoo.test, SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: win})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ppl) != math.Float64bits(pt.PPL) || math.Float64bits(density) != math.Float64bits(pt.Density) {
				t.Errorf("%s win %d: PerplexityUnderScheme (%v, %v), SystemEvaluate (%v, %v)", s.Name(), win, ppl, density, pt.PPL, pt.Density)
			}
			if ppl == 0 {
				t.Errorf("%s win %d: perplexity 0", s.Name(), win)
			}
		}
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

// ChoiceLogProbs decodes an item's prompt once and extends it per choice.
// Under every scheme the quality tables score with, that equals decoding
// prompt+choice afresh for each choice, in float64 bits: no scheme's hook
// carries per-call state into the scores.
func TestChoiceLogProbsSharesThePromptUnderEveryScheme(t *testing.T) {
	trained(t)
	m := zoo.m
	thr := make([]float32, len(m.Blocks))
	for l := range thr {
		thr[l] = 0.05
	}
	score := func(layer int, x tensor.Vec) tensor.Vec {
		u := tensor.NewVec(m.Cfg.DFF)
		for i := range u {
			u[i] = x[i%len(x)] * float32(layer+1)
		}
		return u
	}
	var items []data.MCItem
	for _, kind := range data.TaskKinds() {
		items = append(items, data.GenerateTask(kind, 3, tensor.NewRNG(uint64(80+kind)))...)
	}
	for _, s := range []sparsity.Scheme{
		nil, sparsity.Dense{}, &sparsity.GLUOracle{Rho: 0.5}, &sparsity.GatePrune{Rho: 0.25},
		&sparsity.UpPrune{Rho: 0.25}, &sparsity.GatePrune{Thresholds: thr},
		&sparsity.Predictive{Rho: 0.5, Score: score}, sparsity.NewDIP(0.5),
	} {
		var hook model.MLPHook
		if s != nil {
			hook = Hook(m, sparsity.Clone(s), nil)
		}
		dec := m.NewDecoder(hook)
		for i, it := range items {
			prompt := zoo.tok.Encode(it.Prompt)
			conts := make([][]int, len(it.Choices))
			for c, choice := range it.Choices {
				conts[c] = zoo.tok.Encode(choice)
			}
			got := make([]float64, len(conts))
			model.ChoiceLogProbs(dec, prompt, conts, got)
			for c, cont := range conts {
				ids := append(append([]int{}, prompt...), cont...)
				ids = ids[max(0, len(ids)-m.Cfg.MaxSeq):]
				fresh := m.NewDecoder(hook)
				var lp float64
				for t, id := range ids[:len(ids)-1] {
					logits := fresh.Step(id)
					if t+1 >= len(ids)-len(cont) {
						lp += float64(logits[ids[t+1]]) - tensor.LogSumExp(logits)
					}
				}
				if want := lp / float64(len(cont)); math.Float64bits(got[c]) != math.Float64bits(want) {
					t.Fatalf("%T, item %d choice %d: ChoiceLogProbs %v, fresh decode %v", s, i, c, got[c], want)
				}
			}
		}
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
	if steps != len(st.tokens) || !st.Done() || st.Pos() != steps {
		t.Fatalf("stepped %d, total %d, pos %d", steps, len(st.tokens), st.Pos())
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
}

// A stream gives a Dense scheme its own MLP storage, so once it has decoded
// a whole window (KV slots and buffers built) a Dense Step allocates
// nothing, exactly like a DIP-CA or GatePrune one, whose scheme owns its
// scratch: the token's decode, its pending copy and its one-column commit.
func TestStreamStepAllocatesNothingAfterTheFirstWindow(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
	for _, s := range []sparsity.Scheme{sparsity.Dense{}, sparsity.NewDIPCA(0.5, 0.2), &sparsity.GatePrune{Rho: 0.5}} {
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

// Step is Decode and then a Commit of the stream alone, bit for bit: for
// DIP-CA, Dense and GatePrune (which reads the gate rows densely) on a
// private LFU cache, and for a Belady Replay, whose commits equal a Commit
// of the replayed stream alone, token by token.
func TestStepIsDecodeThenCommitAlone(t *testing.T) {
	trained(t)
	same := func(what string, got, want *Stream) {
		t.Helper()
		if streamBits(got) != streamBits(want) || got.mc.TotalStats() != want.mc.TotalStats() {
			t.Fatalf("%s: Step %+v (cache %+v) != Decode+Commit %+v (cache %+v)",
				what, got.Point(), got.mc.TotalStats(), want.Point(), want.mc.TotalStats())
		}
	}
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: 32}
	toks := zoo.test[:96]
	for _, mk := range []func() sparsity.Scheme{
		func() sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func() sparsity.Scheme { return sparsity.Dense{} },
		func() sparsity.Scheme { return &sparsity.GatePrune{Rho: 0.5} },
	} {
		stepped, err := NewStream(zoo.m, mk(), toks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		committed, err := NewStream(zoo.m, mk(), toks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		step := committed.step.Plan().NewStep()
		for stepped.Step() {
			if !committed.Decode() {
				t.Fatal("Decode drained before Step")
			}
			Commit([]*Stream{committed}, step)
		}
		if committed.Decode() {
			t.Fatal("Step drained before Decode")
		}
		same(mk().Name(), stepped, committed)
	}

	cfg.Policy, cfg.MaxTokens = cache.PolicyBelady, 96
	s := sparsity.NewDIP(0.5)
	tr, err := Record(zoo.m, s, zoo.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := systemPlan(zoo.m, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.st
	acc := *tr.st.acc
	want.acc, want.mc, want.meter = &acc, plan.NewCache(cache.PolicyBelady), *plan.NewMeter()
	want.mc.SetFuture(tr.units)
	step, layers := plan.NewStep(), len(zoo.m.Blocks)
	for t0 := 0; t0 < len(tr.acc); t0 += layers {
		want.pending, want.dirty = tr.acc[t0:t0+layers], true
		Commit([]*Stream{&want}, step)
	}
	same("belady replay", Replay(tr, plan, cache.PolicyBelady), &want)
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

// Restart is a tick-boundary operation: a stream with a decoded token not
// yet committed must refuse it, exactly like Release.
func TestStreamRestartPanicsOnUncommittedAccesses(t *testing.T) {
	trained(t)
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
	st, err := NewStream(zoo.m, sparsity.NewDIP(0.5), zoo.test[:32], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Decode() {
		t.Fatal("first Decode failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Restart on an uncommitted stream must panic")
		}
	}()
	st.Restart()
}
