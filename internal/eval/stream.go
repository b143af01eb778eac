package eval

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Validate reports the first invalid SystemConfig field by name. Zero values
// that have documented defaults (BytesPerWeight, Win, MaxTokens) are valid;
// everything else must describe a physically meaningful system.
func (cfg SystemConfig) Validate() error {
	switch {
	case cfg.Device.DRAMBandwidth <= 0:
		return fmt.Errorf("eval: SystemConfig.Device.DRAMBandwidth must be positive bytes/s, got %v", cfg.Device.DRAMBandwidth)
	case cfg.Device.FlashBandwidth <= 0:
		return fmt.Errorf("eval: SystemConfig.Device.FlashBandwidth must be positive bytes/s, got %v", cfg.Device.FlashBandwidth)
	case cfg.Device.DRAMFraction <= 0:
		return fmt.Errorf("eval: SystemConfig.Device.DRAMFraction must be positive, got %v", cfg.Device.DRAMFraction)
	case cfg.Policy.String() == "invalid":
		return fmt.Errorf("eval: SystemConfig.Policy %d is not a known cache policy", cfg.Policy)
	case cfg.BytesPerWeight < 0:
		return fmt.Errorf("eval: SystemConfig.BytesPerWeight must be non-negative (0 = INT4 default), got %v", cfg.BytesPerWeight)
	case cfg.MaxTokens < 0:
		return fmt.Errorf("eval: SystemConfig.MaxTokens must be non-negative (0 = use all), got %d", cfg.MaxTokens)
	case cfg.Win < 0:
		return fmt.Errorf("eval: SystemConfig.Win must be non-negative (0 = model MaxSeq), got %d", cfg.Win)
	}
	return nil
}

// evalWindow resolves the effective (tokens, window, total) of a coupled
// evaluation: MaxTokens truncates the stream, Win is resolved by the
// model's Window, and the stream is consumed in whole windows only
// (model.Perplexity's chunking).
func evalWindow(m *model.Model, tokens []int, cfg SystemConfig) (toks []int, win, total int) {
	if cfg.MaxTokens > 0 && len(tokens) > cfg.MaxTokens {
		tokens = tokens[:cfg.MaxTokens]
	}
	win = m.Window(cfg.Win)
	nWin := 0
	if win > 0 {
		nWin = len(tokens) / win
	}
	return tokens, win, nWin * win
}

// Stream is a resumable cache-coupled evaluation of one token stream: the
// per-token Step API that SystemEvaluate and the serving engine share. Each
// Step feeds one token through an incremental decoder (per-layer KV caches,
// reset at window boundaries) with the scheme hooked into every MLP, scoring
// teacher-forced cross-entropy exactly like model.Perplexity's windowing.
//
// A stream owns all of its mutable state — scheme scratch, decoder, density
// accumulator, meter, CE sums — so independent streams may step concurrently.
// The cache is owned in the solo path (NewStream) and caller-provided in the
// serving path (NewStreamWith), where StreamOpts.Deferred additionally
// buffers each token's accesses for an explicitly ordered Commit instead of
// applying them inside Step.
//
// Reuse recycles a finished stream and must leave it exactly as
// NewStreamWith builds it: every counter, sum and the meter zeroed, the
// density accumulator Reset, the decoder rewound at the first Step. It keeps
// storage only — the decoder's KV slots and scratch, the accumulator, the
// pending buffers, a Dense scheme's MLP storage and, when handed back, the
// scheme clone.
type Stream struct {
	m      *model.Model
	s      sparsity.Scheme
	tokens []int
	win    int
	total  int

	plan  *hwsim.Plan
	mc    *cache.ModelCache
	meter hwsim.Meter
	acc   *DensityAccumulator
	hook  model.MLPHook
	dec   *model.Decoder
	dense sparsity.DenseScratch // a Dense scheme's MLP storage, built on first use

	pos     int // tokens consumed
	decoded int // tokens ever stepped, including work a Restart discarded
	winPos  int // position within the current window
	winCE   float64
	ce      float64
	preds   int

	hits, misses int64 // this stream's cache traffic (mc may be shared)

	deferred, dirty bool                   // side by side: one word, not two
	pending         []sparsity.TokenAccess // per-layer buffer, valid when dirty
}

// StreamOpts configures NewStreamWith beyond the SystemConfig.
type StreamOpts struct {
	// Plan prices transfers; required.
	Plan *hwsim.Plan
	// Cache receives the stream's accesses; required. It may be sized
	// differently from Plan.Caps (cache-budget arbitration) or shared with
	// other streams (with Deferred set).
	Cache *cache.ModelCache
	// Deferred buffers each Step's accesses instead of applying them; the
	// caller applies them in its chosen order via Commit. The scheme still
	// sees Cache as its CacheView, so cache-aware masks read the state as of
	// the last Commit — the serving engine's tick-boundary semantics.
	Deferred bool
}

// NewStream builds a self-contained stream whose memory plan and cache are
// derived from cfg. Belady is rejected, as in NewStreamWith; a Belady
// evaluation is Record followed by Replay, whose future is the trace.
func NewStream(m *model.Model, s sparsity.Scheme, tokens []int, cfg SystemConfig) (*Stream, error) {
	plan, err := systemPlan(m, s, cfg)
	if err != nil {
		return nil, err
	}
	return NewStreamWith(m, s, tokens, cfg, StreamOpts{Plan: plan, Cache: plan.NewCache(cfg.Policy)})
}

// systemPlan validates cfg and lays out its device's memory for s's groups.
func systemPlan(m *model.Model, s sparsity.Scheme, cfg SystemConfig) (*hwsim.Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return hwsim.NewPlan(m, cfg.Device, hwsim.PlanOpts{
		BytesPerWeight: cfg.BytesPerWeight,
		Groups:         hwsim.ProbeGroups(s, m),
	})
}

// NewStreamWith builds a stream against a caller-owned plan and cache — the
// serving engine's entry point, where many streams arbitrate one budget.
// Belady is rejected: its oracle needs the future of the stream it serves,
// which only a recorded Trace has.
func NewStreamWith(m *model.Model, s sparsity.Scheme, tokens []int, cfg SystemConfig, opts StreamOpts) (*Stream, error) {
	st := new(Stream)
	if err := st.Reuse(m, s, tokens, cfg, opts); err != nil {
		return nil, err
	}
	return st, nil
}

// Reuse rebuilds st in place as the stream NewStreamWith(m, s, tokens, cfg,
// opts) would return, keeping only its storage (see Stream): the serving
// engine's way to give a finished session's stream to the next request. s
// may be st.Scheme() when the new request runs the scheme the old one was
// cloned from. On error st must not be used again.
func (st *Stream) Reuse(m *model.Model, s sparsity.Scheme, tokens []int, cfg SystemConfig, opts StreamOpts) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if opts.Plan == nil || opts.Cache == nil {
		return fmt.Errorf("eval: StreamOpts.Plan and StreamOpts.Cache are required")
	}
	if cfg.Policy == cache.PolicyBelady {
		return fmt.Errorf("eval: Belady policy needs a recorded future: use Record and Replay")
	}
	tokens, win, total := evalWindow(m, tokens, cfg)
	st.couple(m, s, tokens, win, total, opts.Plan, opts.Cache)
	if opts.Deferred {
		st.deferred = true
		if len(st.pending) != len(m.Blocks) {
			st.pending = make([]sparsity.TokenAccess, len(m.Blocks))
		}
	}
	return nil
}

// couple resets st to a fresh stream over tokens whose hook records every
// layer's accesses against mc, with a zeroed meter and density accumulator
// attached. The decoder, accumulator, hook, Dense storage and pending
// buffers carry over (the decoder and accumulator only for the same model);
// the decoder is rewound at the first Step.
func (st *Stream) couple(m *model.Model, s sparsity.Scheme, tokens []int, win, total int, plan *hwsim.Plan, mc *cache.ModelCache) *Stream {
	acc, dec := st.acc, st.dec
	if acc == nil || st.m != m {
		acc, dec = NewDensityAccumulator(m), nil
	}
	acc.Reset()
	*st = Stream{
		m: m, s: s, tokens: tokens, win: win, total: total,
		plan: plan, mc: mc, meter: *plan.NewMeter(), acc: acc,
		hook: st.hook, dec: dec, dense: st.dense, pending: st.pending,
	}
	if st.hook == nil {
		st.hook = func(layer int, x tensor.Vec) tensor.Vec {
			y, ta := sparsity.ForwardColumn(layer, st.s, x, st.m.Blocks[layer].MLP, st.mc, &st.dense)
			st.record(layer, &ta)
			return y
		}
	}
	return st
}

// record books one layer's accesses, however they were computed (the
// stream's own hook, or a fused BatchStep): density accounting, then either
// the cache access itself, priced on the meter with per-stream hit/miss
// counts (the cache's own totals would mix streams when it is shared), or —
// deferred — a copy into the pending buffer for Commit, the scheme having
// seen the cache's tick-start state. Unit lists are copied because schemes
// reuse their scratch between calls; the buffers are reused across tokens,
// so steady-state stepping does not allocate.
func (st *Stream) record(layer int, ta *sparsity.TokenAccess) {
	st.acc.Add(ta)
	if st.deferred {
		p := &st.pending[layer]
		for g := range ta.Groups {
			p.Groups[g].Kind = ta.Groups[g].Kind
			p.Groups[g].Units = append(p.Groups[g].Units[:0], ta.Groups[g].Units...)
		}
		return
	}
	st.access(layer, ta)
}

// access prices one layer's accesses on the cache and the meter, opening
// the token at layer 0, and counts them as this stream's hits and misses.
// A coupled Step, Commit and Replay all make these calls, in layer order.
func (st *Stream) access(layer int, ta *sparsity.TokenAccess) {
	if layer == 0 {
		st.meter.BeginToken()
	}
	res := st.mc.Access(layer, ta)
	st.meter.AddAccess(res)
	for g := range res.HitUnits {
		st.hits += int64(res.HitUnits[g])
		st.misses += int64(res.MissUnits[g])
	}
}

// Step consumes the next token: one incremental decode through every layer
// with the scheme hooked in, plus cross-entropy scoring against the token
// that follows. It returns false once the stream is exhausted. In deferred
// mode the caller must Commit between Steps.
func (st *Stream) Step() bool {
	if st.pos >= st.total {
		return false
	}
	st.score(st.decoder().Step(st.tokens[st.pos]))
	return true
}

// decoder returns the decoder the next token steps through, fresh at a
// window boundary. It is the prologue of every step, solo or fused.
func (st *Stream) decoder() *model.Decoder {
	if st.deferred && st.dirty {
		panic("eval: deferred Stream stepped with uncommitted accesses")
	}
	if st.winPos == 0 {
		if st.dec == nil {
			st.dec = st.m.NewDecoder(st.hook)
		} else {
			st.dec.Reset()
		}
	}
	return st.dec
}

// score is the epilogue of every step: it moves past the token whose logits
// these are and scores them against the token that follows.
func (st *Stream) score(logits tensor.Vec) {
	st.pos++
	st.decoded++
	st.winPos++
	if st.winPos < st.win {
		// This position predicts the next token of the same window; the
		// window's final logits are context-only, as in model.Perplexity.
		st.winCE += tensor.LogSumExp(logits) - float64(logits[st.tokens[st.pos]])
		st.preds++
	} else {
		st.ce += st.winCE
		st.winCE = 0
		st.winPos = 0
	}
	if st.deferred {
		st.dirty = true
	}
}

// Commit applies the deferred accesses of the last Step to the (shared)
// cache and prices them on this stream's meter. The caller chooses the
// cross-stream ordering; a fixed ordering makes shared-cache stats
// deterministic. Commit panics on a non-deferred stream.
func (st *Stream) Commit() {
	if !st.deferred {
		panic("eval: Commit on a non-deferred Stream")
	}
	if !st.dirty {
		return
	}
	for l := range st.pending {
		st.access(l, &st.pending[l])
	}
	st.dirty = false
}

// Release detaches the stream from its cache for a suspension: all decode
// state (decoder, KV caches, scheme scratch, CE sums, meter, traffic
// counters) is retained, so a later Regrant resumes the stream exactly
// where it stopped. Stepping a released stream fails loudly. Suspension is
// a tick-boundary operation — releasing with uncommitted deferred accesses
// panics.
func (st *Stream) Release() {
	if st.dirty {
		panic("eval: Release on a Stream with uncommitted accesses")
	}
	st.mc = nil
}

// Regrant couples a suspended stream to a (typically fresh) cache — the
// serving engine's resume hook after a preemption released the stream's
// partitioned cache grant. Cumulative traffic and meter state carry over;
// only the cache the scheme sees from the next Step onward changes.
func (st *Stream) Regrant(mc *cache.ModelCache) {
	if mc == nil {
		panic("eval: Regrant needs a cache")
	}
	st.mc = mc
}

// Restart rewinds the stream to token 0 for a from-scratch re-prefill after
// a destructive fault (a revoked cache grant takes the decode state built on
// it down too): position, window state, CE sums, and the density accumulator
// reset, and the decoder's KV state drops at the next Step. The meter,
// cumulative traffic counters, and the Decoded total are retained — the
// discarded prefix still cost simulated time and bytes, which is exactly the
// throughput-vs-goodput gap chaos reports measure. After a restarted stream
// drains, its CE, perplexity, and density equal a fresh run's (bit-identical
// for cache-independent schemes). Restart is a tick-boundary operation —
// restarting with uncommitted deferred accesses panics.
func (st *Stream) Restart() {
	if st.dirty {
		panic("eval: Restart on a Stream with uncommitted accesses")
	}
	st.pos, st.winPos = 0, 0
	st.winCE, st.ce = 0, 0
	st.preds = 0
	st.acc.Reset()
}

// Done reports whether every token has been consumed.
func (st *Stream) Done() bool { return st.pos >= st.total }

// Pos returns the number of tokens consumed so far (Restart resets it).
func (st *Stream) Pos() int { return st.pos }

// Decoded returns the cumulative number of tokens ever stepped, including
// work discarded by Restart — the stream's throughput denominator, as
// opposed to Pos, which only counts the surviving prefix.
func (st *Stream) Decoded() int { return st.decoded }

// Scheme returns the scheme instance the stream runs.
func (st *Stream) Scheme() sparsity.Scheme { return st.s }

// Cache returns the cache the stream is coupled to.
func (st *Stream) Cache() *cache.ModelCache { return st.mc }

// Deferred reports whether the stream buffers cache accesses for an
// explicit Commit (the shared-cache mode, fixed at construction). Callers
// moving a stream between owners — e.g. a cluster migrating a session —
// use this to check grant compatibility: a deferred stream can only ever
// be re-granted a shared cache, an undeferred one a private cache.
func (st *Stream) Deferred() bool { return st.deferred }

// Traffic returns this stream's cumulative cache traffic in units. Unlike
// the cache's own totals, these stay per-stream when the cache is shared.
func (st *Stream) Traffic() (hits, misses int64) { return st.hits, st.misses }

// CE returns the accumulated cross-entropy sum and prediction count —
// the raw per-stream output, useful for bit-exact comparisons.
func (st *Stream) CE() (float64, int) { return st.ce + st.winCE, st.preds }

// Point summarizes the stream's KPIs so far. After the final Step it equals
// what SystemEvaluate returns for the same configuration.
func (st *Stream) Point() Point {
	ppl := 0.0
	if st.preds > 0 {
		ppl = nn.Perplexity((st.ce + st.winCE) / float64(st.preds))
	}
	hitRate := 0.0
	if t := st.hits + st.misses; t > 0 {
		hitRate = float64(st.hits) / float64(t)
	}
	return Point{
		Scheme:     st.s.Name(),
		Density:    st.acc.Mean(),
		PPL:        ppl,
		Throughput: st.meter.Throughput(),
		HitRate:    hitRate,
		LatencyS:   st.meter.Latency(),
	}
}
