package serving

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// zoo holds one trained tiny model shared across the package's tests.
var zoo struct {
	m      *model.Model
	tokens []int
}

func trained(t *testing.T) {
	t.Helper()
	if zoo.m != nil {
		return
	}
	tok := data.NewTokenizer()
	splits := data.NewSplits(73, 14000, 6000)
	cfg := model.Config{
		Name: model.Mistral7BSim, Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 29)
	opts := model.DefaultTrainOpts()
	opts.Steps = 100
	opts.Batch = 2
	opts.SeqLen = 31
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		t.Fatal(err)
	}
	zoo.m = m
	zoo.tokens = tok.Encode(splits.Test)
}

// streamFor carves session i's token stream out of the test split so every
// session decodes distinct content. nWin is its length in 32-token windows.
func streamFor(t *testing.T, i, nWin int) []int {
	t.Helper()
	lo, hi := i*256, i*256+nWin*32
	if hi > len(zoo.tokens) {
		t.Fatalf("test split too short for session %d (%d > %d)", i, hi, len(zoo.tokens))
	}
	return zoo.tokens[lo:hi]
}

func sysCfg() eval.SystemConfig {
	return eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
}

func requests(t *testing.T, n int, scheme func(i int) sparsity.Scheme, wins func(i int) int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: string(rune('a' + i)), Scheme: scheme(i), Tokens: streamFor(t, i, wins(i))}
	}
	return reqs
}

// The headline acceptance test: under exclusive arbitration every session
// must reproduce a solo SystemEvaluate of its stream bit for bit — same
// perplexity, density, simulated throughput, hit rate, latency. DIP-CA is
// the hard case: its masks read the session's cache state every token.
func TestExclusiveSessionsMatchSoloSystemEvaluateBitForBit(t *testing.T) {
	trained(t)
	const k = 4
	reqs := requests(t, k,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(i int) int { return 3 + i%2 })
	rep := run(t, Config{System: sysCfg(), Arb: ArbExclusive, MaxActive: k, Quantum: 5, Seed: 11}, FixedBatch(reqs))
	for _, sm := range rep.Sessions {
		solo := must(eval.SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), reqs[sm.Index].Tokens, sysCfg()))(t)
		if sm.Point != solo {
			t.Fatalf("session %q diverged from solo evaluation:\nserved %+v\nsolo   %+v", sm.ID, sm.Point, solo)
		}
		if sm.Tokens != len(reqs[sm.Index].Tokens) {
			t.Fatalf("session %q decoded %d of %d tokens", sm.ID, sm.Tokens, len(reqs[sm.Index].Tokens))
		}
	}
}

// Sessions contending for one ModelCache must leave bit-identical final
// occupancy, statistics, and per-session outputs for a fixed admission
// order across the variant matrix. Run under -race this also proves the
// parallel step phase never races the serial commits.
func TestSharedCacheDeterministicAcrossWorkerCounts(t *testing.T) {
	trained(t)
	reqs := requests(t, 5,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(i int) int { return 2 + i%3 })
	matrix(t, row{
		name:  "shared seed=7",
		w:     func(*testing.T) Workload { return FixedBatch(reqs) },
		cfg:   Config{System: sysCfg(), Arb: ArbShared, MaxActive: 3, Quantum: 4, Seed: 7},
		guard: sharedCacheFilled,
	})
}

// sharedCacheFilled is the guard of the shared-cache rows.
func sharedCacheFilled(t *testing.T, o outcome) {
	if o.occ == 0 || o.stats.Hits == 0 {
		t.Fatalf("scenario broken: shared cache never filled (occupancy %d, stats %+v)", o.occ, o.stats)
	}
}

// A different seed must produce a different admission order (and the same
// seed must reproduce it exactly). With one batch slot the engine is a
// seeded serial queue: finish ticks follow admission ranks.
func TestAdmissionOrderIsSeededAndReproducible(t *testing.T) {
	trained(t)
	reqs := requests(t, 5,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 2 })
	runSeed := func(seed uint64) *Report {
		return run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 1, Quantum: 16, Seed: seed}, FixedBatch(reqs))
	}
	ranks := func(r *Report) []int {
		out := make([]int, len(r.Sessions))
		for i, sm := range r.Sessions {
			out[i] = sm.AdmitRank
		}
		return out
	}
	a, b, c := runSeed(1), runSeed(1), runSeed(99)
	ra, rb, rc := ranks(a), ranks(b), ranks(c)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("same seed, different admission order: %v vs %v", ra, rb)
		}
	}
	same := true
	for i := range ra {
		same = same && ra[i] == rc[i]
	}
	if same {
		t.Fatalf("seeds 1 and 99 produced identical admission order %v", ra)
	}
	for _, sm := range a.Sessions {
		// One slot: session with rank r is the (r+1)-th to finish.
		for _, other := range a.Sessions {
			if other.AdmitRank < sm.AdmitRank && other.FinishTick > sm.FinishTick {
				t.Fatalf("serial queue finished out of admission order: %+v before %+v", sm, other)
			}
		}
	}
}

// Continuous batching: with two slots and unequal stream lengths, a queued
// session must be admitted the moment a slot frees mid-run — not at a
// global barrier — and the whole batch must finish in fewer ticks than a
// one-slot queue.
func TestContinuousBatchingBackfillsFreedSlots(t *testing.T) {
	trained(t)
	reqs := requests(t, 4,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(i int) int { return []int{4, 1, 1, 2}[i] })
	slots := func(maxActive int) *Report {
		return run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: maxActive, Quantum: 8, Seed: 3}, FixedBatch(reqs))
	}
	rep := slots(2)
	backfilled := 0
	for _, sm := range rep.Sessions {
		if sm.AdmitRank >= 2 {
			if sm.AdmitTick == 0 {
				t.Fatalf("session %q admitted at tick 0 despite full batch: %+v", sm.ID, sm)
			}
			backfilled++
		}
		if sm.FinishTick <= sm.AdmitTick {
			t.Fatalf("session %q has empty run interval: %+v", sm.ID, sm)
		}
	}
	if backfilled != 2 {
		t.Fatalf("expected 2 backfilled sessions, got %d", backfilled)
	}
	if serial := slots(1); rep.Ticks >= serial.Ticks {
		t.Fatalf("batched run took %d ticks, serial queue %d", rep.Ticks, serial.Ticks)
	}
}

// Arbitration grants: fair-share hands every session budget/MaxActive and
// exclusive hands each the whole over-committed budget. Equal partitions
// must still hit, and cannot beat the exclusive upper bound.
func TestFairShareAndExclusiveGrants(t *testing.T) {
	trained(t)
	reqs := requests(t, 3,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 3 })
	runArb := func(arb ArbPolicy) *Report {
		return run(t, Config{System: sysCfg(), Arb: arb, MaxActive: 3, Quantum: 8, Seed: 5}, FixedBatch(reqs))
	}
	fair := runArb(ArbFairShare)
	for _, sm := range fair.Sessions {
		if sm.Share != 1.0/3 {
			t.Fatalf("fair-share grant %v for %q, want 1/3", sm.Share, sm.ID)
		}
		if sm.Point.HitRate <= 0 {
			t.Fatalf("fair-share session %q starved: %+v", sm.ID, sm.Point)
		}
	}
	excl := runArb(ArbExclusive)
	for _, sm := range excl.Sessions {
		if sm.Share != 1 {
			t.Fatalf("exclusive grant %v for %q, want 1", sm.Share, sm.ID)
		}
	}
	if fair.HitRate > excl.HitRate {
		t.Fatalf("fair-share hit rate %v above exclusive upper bound %v", fair.HitRate, excl.HitRate)
	}
}

// Report coherence: token totals, simulated aggregate throughput, and
// percentile ordering.
func TestReportAggregates(t *testing.T) {
	trained(t)
	reqs := requests(t, 4,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(i int) int { return 1 + i%2 })
	rep := run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 2, Quantum: 8, Seed: 2}, FixedBatch(reqs))
	want := 0
	for _, r := range reqs {
		want += len(r.Tokens)
	}
	if rep.TotalTokens != want {
		t.Fatalf("TotalTokens %d, want %d", rep.TotalTokens, want)
	}
	if rep.SimTokS <= 0 || rep.Wall.TokS <= 0 || rep.Wall.Seconds <= 0 {
		t.Fatalf("non-positive throughput aggregates: %+v", rep)
	}
	if rep.SimLatencyP50 > rep.SimLatencyP99 {
		t.Fatalf("latency percentiles out of order: %v %v", rep.SimLatencyP50, rep.SimLatencyP99)
	}
	if rep.SimLatencyP50 <= 0 {
		t.Fatal("zero simulated latency percentile")
	}
}

func TestEngineRejections(t *testing.T) {
	trained(t)
	good := requests(t, 1,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 1 })
	belady, invalid := sysCfg(), sysCfg()
	belady.Policy, invalid.Device.FlashBandwidth = cache.PolicyBelady, 0
	for _, c := range []struct {
		what string
		sys  eval.SystemConfig
		w    Workload
	}{
		{"Belady eviction (for serving)", belady, FixedBatch(good)},
		{"an invalid SystemConfig", invalid, FixedBatch(good)},
		{"a nil workload", sysCfg(), nil},
		{"an empty request batch", sysCfg(), FixedBatch(nil)},
		{"a nil scheme", sysCfg(), FixedBatch([]Request{{ID: "x", Tokens: []int{1}}})},
		{"a negative deadline", sysCfg(), FixedBatch([]Request{
			{ID: "x", Scheme: sparsity.NewDIP(0.5), Tokens: []int{1}, SLO: SLO{DeadlineTicks: -1}},
		})},
	} {
		if _, err := NewEngine(zoo.m, Config{System: c.sys}, c.w); err == nil {
			t.Fatalf("%s must be rejected", c.what)
		}
	}
	// A rejected config leaves the caller's recorder unbound: fix the request,
	// keep the recorder, and the retry succeeds.
	rec := obs.NewRecorder(obs.Config{})
	if _, err := NewEngine(zoo.m, Config{System: sysCfg(), Obs: rec}, FixedBatch([]Request{{ID: "x", Tokens: []int{1}}})); err == nil {
		t.Fatal("nil scheme must be rejected with a recorder attached")
	}
	if _, err := NewEngine(zoo.m, Config{System: sysCfg(), Obs: rec}, FixedBatch(good)); err != nil {
		t.Fatalf("retry with the same recorder after a rejected config: %v", err)
	}
	e, _ := drain(t, "first Run", Config{System: sysCfg()}, FixedBatch(good))
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run must be rejected")
	}
}

// countingScheme is dense decoding that counts its Forwards. A pointer, so
// requests can share one; not stateful, so Clone hands the same one back.
type countingScheme struct{ forwards int }

func (c *countingScheme) Name() string { return "counting" }
func (c *countingScheme) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, v sparsity.CacheView) (tensor.Vec, sparsity.TokenAccess) {
	c.forwards++
	return sparsity.Dense{}.Forward(layer, x, mlp, v)
}

// sliceScheme is a scheme value == cannot compare (it would panic).
type sliceScheme struct {
	sparsity.Dense
	forwards []int
}

func (s sliceScheme) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, v sparsity.CacheView) (tensor.Vec, sparsity.TokenAccess) {
	s.forwards[0]++
	return s.Dense.Forward(layer, x, mlp, v)
}

// NewEngine sizes the memory plan from one probe forward per distinct scheme
// value, not per request: N requests sharing a scheme probe it once, in
// whatever order a mix interleaves them, and the plan covers the union.
func TestNewEngineProbesEachDistinctSchemeOnce(t *testing.T) {
	trained(t)
	a, b := &countingScheme{}, &countingScheme{}
	uncomparable := sliceScheme{forwards: make([]int, 1)}
	dip := sparsity.NewDIP(0.5)
	reqs := requests(t, 12, func(i int) sparsity.Scheme {
		return []sparsity.Scheme{a, b, sparsity.Dense{}, dip, uncomparable, a}[i%6]
	}, func(int) int { return 1 })
	e := must(NewEngine(zoo.m, Config{System: sysCfg()}, FixedBatch(reqs)))(t)
	if a.forwards != 1 || b.forwards != 1 {
		t.Fatalf("shared schemes probed %d and %d times over 12 requests, want once each", a.forwards, b.forwards)
	}
	if uncomparable.forwards[0] != 2 {
		t.Fatalf("an uncomparable scheme value was probed %d times, want once per request (2)", uncomparable.forwards[0])
	}
	want := must(hwsim.NewPlan(zoo.m, sysCfg().Device, hwsim.PlanOpts{Groups: [sparsity.NumGroups]bool{true, true, true, true}}))(t)
	if !reflect.DeepEqual(e.plan, want) {
		t.Fatal("the plan is not the one over the union of dense's row groups and DIP's column groups")
	}
}

func TestParseArbPolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParseArbPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParseArbPolicy("belady"); err == nil {
		t.Fatal("unknown policy name must error")
	}
}

// Percentile reads 1-based rank round(p·n), halves up, clamped to [1, n]
// — not nearest-rank's ⌈p·n⌉, which the last two rows tell apart — and the
// report fold's quantiles read the same ranks from one sorted copy.
func TestPercentile(t *testing.T) {
	ascending := func(n int) []float64 { // 1..n, shuffled
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((i*7919)%n + 1)
		}
		return vals
	}
	for _, tc := range []struct {
		name string
		vals []float64
		p    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"p0 is the minimum", []float64{4, 1, 3, 2}, 0, 1},
		{"p1 is the maximum", []float64{4, 1, 3, 2}, 1, 4},
		{"p50 of four", []float64{4, 1, 3, 2}, 0.5, 2},
		{"p99 of four", []float64{4, 1, 3, 2}, 0.99, 4},
		{"n=7 p90 is the 6th", ascending(7), 0.9, 6},
		{"n=1070 p99 is the 1059th", ascending(1070), 0.99, 1059},
	} {
		in := slices.Clone(tc.vals)
		if got := Percentile(tc.vals, tc.p); got != tc.want {
			t.Errorf("%s: Percentile = %v, want %v", tc.name, got, tc.want)
		}
		if !slices.Equal(in, tc.vals) {
			t.Errorf("%s: Percentile mutated its input", tc.name)
		}
		p50, p99 := quantiles(slices.Clone(tc.vals))
		if p50 != Percentile(tc.vals, 0.5) || p99 != Percentile(tc.vals, 0.99) {
			t.Errorf("%s: quantiles %v/%v disagree with Percentile", tc.name, p50, p99)
		}
	}
}
