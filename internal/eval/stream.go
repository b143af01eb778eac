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

// evalWindow resolves the effective tokens and window of a coupled
// evaluation: MaxTokens truncates the stream, Win is resolved by the
// model's Window, and the stream is cut to whole windows
// (model.Perplexity's chunking).
func evalWindow(m *model.Model, tokens []int, cfg SystemConfig) (toks []int, win int) {
	if cfg.MaxTokens > 0 && len(tokens) > cfg.MaxTokens {
		tokens = tokens[:cfg.MaxTokens]
	}
	win = m.Window(cfg.Win)
	nWin := 0
	if win > 0 {
		nWin = len(tokens) / win
	}
	return tokens[:nWin*win], win
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
// serving path (NewStreamWith). Every token is priced as a column of a
// hwsim.Step: Step decodes it and commits its accesses as a one-column step
// of the stream's own, while Decode leaves them pending for a Commit that
// steps several streams sharing a cache in the caller's order.
//
// Reuse recycles a finished stream and must leave it exactly as
// NewStreamWith builds it: every counter, sum and the meter zeroed, the
// density accumulator Reset, the decoder rewound at the first Step. It keeps
// storage only — the decoder's KV slots and scratch, the accumulator, the
// pending buffers, the step of the same plan, a Dense scheme's MLP storage
// and, when handed back, the scheme clone.
type Stream struct {
	m      *model.Model
	s      sparsity.Scheme
	tokens []int // the whole windows the stream evaluates
	win    int

	step  *hwsim.Step // prices the stream's own one-column commits; its plan is the stream's
	mc    *cache.ModelCache
	sub   *SubStepView // the open sub-step's view of mc, nil outside one
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

	dirty   bool                   // a decoded token awaits its commit
	pending []sparsity.TokenAccess // its per-layer accesses, valid when dirty
}

// StreamOpts configures NewStreamWith beyond the SystemConfig.
type StreamOpts struct {
	// Plan prices transfers; required.
	Plan *hwsim.Plan
	// Cache receives the stream's accesses; required. It may be sized
	// differently from Plan.Caps (cache-budget arbitration) or shared with
	// other streams, which the caller then advances with Decode and commits
	// in its chosen order with Commit.
	Cache *cache.ModelCache
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
	tokens, win := evalWindow(m, tokens, cfg)
	st.couple(m, s, tokens, win, opts.Plan, opts.Cache)
	return nil
}

// couple resets st to a fresh stream over tokens whose hook records every
// layer's accesses against mc, with a zeroed meter and density accumulator
// and, unless plan is nil, a step over plan. The decoder (rewound at the
// first decode), accumulator, hook, Dense storage, pending buffers and step
// carry over: the first two for the same model, the step for the same plan.
func (st *Stream) couple(m *model.Model, s sparsity.Scheme, tokens []int, win int, plan *hwsim.Plan, mc *cache.ModelCache) *Stream {
	acc, dec, step, pending := st.acc, st.dec, st.step, st.pending
	if acc == nil || st.m != m {
		acc, dec = NewDensityAccumulator(m), nil
	}
	acc.Reset()
	if len(pending) != len(m.Blocks) {
		pending = make([]sparsity.TokenAccess, len(m.Blocks))
	}
	if plan != nil && (step == nil || step.Plan() != plan) {
		step = plan.NewStep()
	}
	*st = Stream{
		m: m, s: s, tokens: tokens, win: win,
		step: step, mc: mc, meter: *plan.NewMeter(), acc: acc,
		hook: st.hook, dec: dec, dense: st.dense, pending: pending,
	}
	if st.hook == nil {
		st.hook = func(layer int, x tensor.Vec) tensor.Vec {
			y, ta := sparsity.ForwardColumn(layer, st.s, x, st.m.Blocks[layer].MLP, st.view(), &st.dense)
			st.record(layer, &ta)
			return y
		}
	}
	return st
}

// view is the cache the stream's masks read: the open sub-step's, or mc.
func (st *Stream) view() sparsity.CacheView {
	if st.sub != nil {
		return st.sub
	}
	return st.mc
}

// record books one layer's accesses, however they were computed (the
// stream's own hook, or a fused BatchDecode): density accounting, a mark in
// an open sub-step's view, then a copy into the pending buffer for the
// token's commit. Unit lists are copied because schemes reuse their scratch
// between calls; the buffers are reused across tokens, so steady-state
// stepping does not allocate.
func (st *Stream) record(layer int, ta *sparsity.TokenAccess) {
	st.acc.Add(ta)
	if st.sub != nil {
		st.sub.mark(layer, ta)
	}
	p := &st.pending[layer]
	for g := range ta.Groups {
		p.Groups[g].Kind = ta.Groups[g].Kind
		p.Groups[g].Units = append(p.Groups[g].Units[:0], ta.Groups[g].Units...)
	}
}

// apply applies one token's accesses, layer by layer, to the stream's cache
// as a column of step, counting the column's own hits and misses (the
// cache's totals would mix streams when it is shared).
func (st *Stream) apply(step *hwsim.Step, token []sparsity.TokenAccess) {
	for l := range token {
		res := step.Access(l, &token[l], st.mc)
		for g := range res.HitUnits {
			st.hits += int64(res.HitUnits[g])
			st.misses += int64(res.MissUnits[g])
		}
	}
}

// commit applies and prices one token of the stream alone, as a one-column
// step of its own: what Commit of this stream by itself does.
func (st *Stream) commit(token []sparsity.TokenAccess) {
	st.step.Begin(1)
	st.apply(st.step, token)
	st.meter.ChargeStep(st.step)
	st.dirty = false
}

// Step consumes the next token: Decode, then the token's cache accesses
// committed alone, as a one-column hwsim.Step. It returns false once the
// stream is exhausted.
func (st *Stream) Step() bool {
	if !st.Decode() {
		return false
	}
	st.commit(st.pending)
	return true
}

// Decode consumes the next token — one incremental decode through every
// layer with the scheme hooked in, scored against the token that follows —
// and leaves its cache accesses pending, so cache-aware masks read the cache
// as of the last commit, or an open SubStepView of it. The caller must
// Commit the stream before its next Decode. It returns false once the
// stream is exhausted.
func (st *Stream) Decode() bool {
	if st.pos >= len(st.tokens) {
		return false
	}
	st.score(st.decoder().Step(st.tokens[st.pos]))
	return true
}

// decoder returns the decoder the next token steps through, fresh at a
// window boundary. It is the prologue of every decode, solo or fused.
func (st *Stream) decoder() *model.Decoder {
	if st.dirty {
		panic("eval: Stream decoded with uncommitted accesses")
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
	st.dirty = true
}

// Commit applies the pending accesses of each stream's last Decode to its
// cache, in the order of sts — one lockstep sub-step of streams that share
// a cache — and prices the sub-step once on step (see hwsim.Step): a unit
// several streams list is fetched once, by the first, and every stream's
// meter is charged the whole step for its token, so one stream alone is
// priced as its own Step prices it. Each stream still counts its own cache
// hits and misses. The caller chooses the order; a fixed order makes
// shared-cache stats deterministic. It closes an open SubStepView, returns
// the step's simulated seconds, and panics on a stream that has not decoded
// since its last commit.
func Commit(sts []*Stream, step *hwsim.Step) float64 {
	step.Begin(len(sts))
	for _, st := range sts {
		if !st.dirty {
			panic("eval: Commit of a Stream with no decoded token")
		}
		st.apply(step, st.pending)
	}
	for _, st := range sts {
		st.meter.ChargeStep(step)
		st.dirty, st.sub = false, nil
	}
	return step.Seconds()
}

// SubStepView is the cache a column of a lockstep sub-step on a shared cache
// reads: the residency when the sub-step opened plus every unit an earlier
// column listed at the same layer and group (a dense access lists its whole
// group). The sub-step's hwsim.Step fetches such a unit once, for its first
// column, so Eq. 10 scores it as cached for the later ones. Its storage is
// built by the first columns to list each group and then reused.
type SubStepView struct {
	mc     *cache.ModelCache
	listed [][sparsity.NumGroups]bool   // per layer and group: a column of this sub-step listed there
	seen   [][sparsity.NumGroups][]bool // per layer and group, by unit: the view's residency once listed
}

// Open opens the next sub-step over sts, which share one cache: until their
// Commit, each Decode or BatchDecode of them reads v and marks its accesses
// in it, column by column in the order they run.
func (v *SubStepView) Open(sts []*Stream) {
	if layers := len(sts[0].m.Blocks); len(v.listed) != layers {
		v.listed = make([][sparsity.NumGroups]bool, layers)
		v.seen = make([][sparsity.NumGroups][]bool, layers)
	}
	v.mc = sts[0].mc
	clear(v.listed)
	for _, st := range sts {
		st.sub = v
	}
}

// Resident implements sparsity.CacheView.
func (v *SubStepView) Resident(layer int, g sparsity.GroupID) []bool {
	if v.listed[layer][g] {
		return v.seen[layer][g]
	}
	return v.mc.Resident(layer, g)
}

// mark adds one column's accesses at a layer to the view.
func (v *SubStepView) mark(layer int, ta *sparsity.TokenAccess) {
	for g, acc := range ta.Groups {
		res := v.mc.Resident(layer, sparsity.GroupID(g))
		if acc.Kind == sparsity.AccessUnused || res == nil {
			continue // nil: a group the cache does not hold, which Commit names
		}
		if !v.listed[layer][g] {
			v.seen[layer][g], v.listed[layer][g] = append(v.seen[layer][g][:0], res...), true
		}
		seen := v.seen[layer][g]
		if acc.Kind == sparsity.AccessDense {
			for u := range seen {
				seen[u] = true
			}
		}
		for _, u := range acc.Units {
			seen[u] = true
		}
	}
}

// Release detaches the stream from its cache for a suspension: all decode
// state (decoder, KV caches, scheme scratch, CE sums, meter, traffic
// counters) is retained, so a later Regrant resumes the stream exactly
// where it stopped. Stepping a released stream fails loudly. Suspension is
// a tick-boundary operation — releasing a stream whose decoded token is not
// committed yet panics.
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
// restarting a stream whose decoded token is not committed yet panics.
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
func (st *Stream) Done() bool { return st.pos >= len(st.tokens) }

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
