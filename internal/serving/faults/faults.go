// Package faults schedules deterministic failure injection for the serving
// engine. A fault plan is a pure function of (seed, tick, slot): every
// decision is drawn by hashing the fault kind into the simulated tick clock
// instead of consuming a stateful RNG stream, so a chaos run is
// bit-identical across worker counts, across the fused and per-session
// decode paths, and regardless of how many idle ticks the engine
// fast-forwards — the determinism contract chaos reports are built on.
//
// Four fault kinds cover the failure modes a serving fleet treats as the
// normal case: transient step faults (a session's decode quantum aborts
// this tick; its stream state survives), grant revocations (a session's
// partitioned cache grant or greedy claim is forcibly released — an
// eviction storm — and its decode state is torn down with it), request
// cancellations (the client hangs up mid-stream), and capacity dips (slots
// go offline for a tick window, simulating a degraded node). Recovery is
// governed by RetryPolicy: a bounded attempt budget with seeded exponential
// backoff measured in simulated ticks. One node-level kind sits beside them:
// Crash, drawn by NodePlan for the cluster, takes a whole node down for a
// restart window.
package faults

import "fmt"

// Kind labels a fault class.
type Kind int

const (
	// Step aborts the target slot's decode quantum for one tick; the
	// session's stream state survives and it retries after backoff.
	Step Kind = iota
	// Revoke forcibly releases the target slot's cache grant (or greedy
	// claim) and tears down the decode state behind it; the session
	// re-prefills from scratch on retry. Under a shared cache there is no
	// per-session grant to revoke, so the engine skips Revoke events there.
	Revoke
	// Cancel withdraws the target slot's request outright — no retry.
	Cancel
	// Dip takes batch slots offline for a tick window; displaced sessions
	// are suspended (stream retained) and resume when capacity returns.
	Dip
	// Crash is a node-level kind (see NodePlan): the whole node freezes for
	// a restart window. Slot scripts reject it — it has no slot target.
	Crash
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Step:
		return "step"
	case Revoke:
		return "revoke"
	case Cancel:
		return "cancel"
	case Dip:
		return "dip"
	case Crash:
		return "crash"
	default:
		return "invalid"
	}
}

// Injector is the engine's view of a fault source. The engine consults it
// once per executed tick, in slot order, before the decode step: fault
// decisions must be pure functions of (tick, slot) so they commute with
// worker count and decode-path choice. Slots index the engine's active
// batch at tick start (0-based).
type Injector interface {
	// Name identifies the plan for reports.
	Name() string
	// StepFault reports whether the session in the given slot aborts its
	// decode quantum this tick.
	StepFault(tick, slot int) bool
	// Revoke reports whether the session in the given slot loses its cache
	// grant this tick.
	Revoke(tick, slot int) bool
	// Cancel reports whether the session in the given slot is cancelled
	// this tick.
	Cancel(tick, slot int) bool
	// Offline returns how many batch slots are offline at tick (0 = full
	// capacity).
	Offline(tick int) int
}

// Config tunes a seeded Plan. Rates are probabilities in [0, 1]; the zero
// value injects nothing.
type Config struct {
	// Seed drives every draw; a fixed seed fixes the whole fault schedule.
	Seed uint64
	// StepRate/RevokeRate/CancelRate are per-slot-per-tick probabilities.
	StepRate   float64
	RevokeRate float64
	CancelRate float64
	// DipRate is the per-tick probability that a capacity dip begins.
	DipRate float64
	// DipSlots is how many slots each dip takes offline (default 1).
	DipSlots int
	// DipTicks is how long each dip lasts in ticks (default 4).
	DipTicks int
}

// Validate reports the first invalid Config field by name.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"StepRate", c.StepRate}, {"RevokeRate", c.RevokeRate},
		{"CancelRate", c.CancelRate}, {"DipRate", c.DipRate}} {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("faults: Config.%s must be a probability in [0, 1], got %v", r.name, r.v)
		}
	}
	if c.DipSlots < 0 {
		return fmt.Errorf("faults: Config.DipSlots must be non-negative (0 = default 1), got %d", c.DipSlots)
	}
	if c.DipTicks < 0 {
		return fmt.Errorf("faults: Config.DipTicks must be non-negative (0 = default 4), got %d", c.DipTicks)
	}
	return nil
}

// Plan is a seeded fault schedule over the simulated tick clock.
type Plan struct {
	cfg Config
}

// New validates cfg and builds a seeded plan, applying the DipSlots /
// DipTicks defaults.
func New(cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DipSlots == 0 {
		cfg.DipSlots = 1
	}
	if cfg.DipTicks == 0 {
		cfg.DipTicks = 4
	}
	return &Plan{cfg: cfg}, nil
}

// Mix builds the canonical chaos mix at one intensity: step faults at rate,
// revocations at rate/2, cancellations at rate/4, and dips starting at
// rate/2 (one slot, four ticks). This is what dipbench -faults uses.
func Mix(rate float64, seed uint64) (*Plan, error) {
	if rate < 0 || rate > 1 || rate != rate {
		return nil, fmt.Errorf("faults: mix rate must be a probability in [0, 1], got %v", rate)
	}
	return New(Config{
		Seed:     seed,
		StepRate: rate, RevokeRate: rate / 2, CancelRate: rate / 4,
		DipRate: rate / 2,
	})
}

// Name identifies the plan.
func (p *Plan) Name() string { return "seeded" }

// Config returns the plan's (defaulted) configuration.
func (p *Plan) Config() Config { return p.cfg }

// StepFault draws the slot's transient-fault decision for this tick.
func (p *Plan) StepFault(tick, slot int) bool {
	return draw(p.cfg.Seed, Step, tick, slot) < p.cfg.StepRate
}

// Revoke draws the slot's grant-revocation decision for this tick.
func (p *Plan) Revoke(tick, slot int) bool {
	return draw(p.cfg.Seed, Revoke, tick, slot) < p.cfg.RevokeRate
}

// Cancel draws the slot's cancellation decision for this tick.
func (p *Plan) Cancel(tick, slot int) bool {
	return draw(p.cfg.Seed, Cancel, tick, slot) < p.cfg.CancelRate
}

// Offline reports how many slots are down at tick: a dip starting at tick s
// (drawn per tick from the seed) covers [s, s+DipTicks). Overlapping dips
// do not stack — the deepest one wins — so offline capacity is bounded by
// DipSlots regardless of rate.
func (p *Plan) Offline(tick int) int {
	if p.cfg.DipRate == 0 {
		return 0
	}
	from := tick - p.cfg.DipTicks + 1
	if from < 0 {
		from = 0
	}
	for s := from; s <= tick; s++ {
		if draw(p.cfg.Seed, Dip, s, 0) < p.cfg.DipRate {
			return p.cfg.DipSlots
		}
	}
	return 0
}

// draw hashes (seed, kind, tick, slot) to a uniform float64 in [0, 1). The
// finalizer is splitmix64's: every input bit avalanches, so neighboring
// ticks and slots draw independently.
func draw(seed uint64, kind Kind, tick, slot int) float64 {
	x := seed
	x ^= (uint64(kind) + 1) * 0x9E3779B97F4A7C15
	x ^= (uint64(tick) + 1) * 0xBF58476D1CE4E5B9
	x ^= (uint64(slot) + 1) * 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Event is one explicitly scheduled fault for a Scripted injector.
type Event struct {
	// Tick is when the fault fires; Kind what it does.
	Tick int
	Kind Kind
	// Slot targets Step/Revoke/Cancel events (the batch slot at tick start).
	Slot int
	// Slots/Ticks shape Dip events (defaults 1 slot, 1 tick).
	Slots int
	Ticks int
}

// Script replays an explicit fault schedule — the controlled counterpart to
// a seeded Plan, used by tests and examples to place one fault exactly.
type Script struct {
	events []Event
}

// Scripted validates and wraps an explicit fault schedule.
func Scripted(events ...Event) (*Script, error) {
	for i, e := range events {
		if e.Tick < 0 {
			return nil, fmt.Errorf("faults: event %d: negative tick %d", i, e.Tick)
		}
		if e.Kind < Step || e.Kind > Dip {
			// Crash is node-level and has no slot target; it belongs to a
			// cluster NodePlan, not a slot script.
			return nil, fmt.Errorf("faults: event %d: kind %d is not a slot-level fault", i, e.Kind)
		}
		if e.Slot < 0 {
			return nil, fmt.Errorf("faults: event %d: negative slot %d", i, e.Slot)
		}
		if e.Slots < 0 || e.Ticks < 0 {
			return nil, fmt.Errorf("faults: event %d: negative dip shape %d slots × %d ticks", i, e.Slots, e.Ticks)
		}
	}
	return &Script{events: append([]Event(nil), events...)}, nil
}

// Name identifies the script.
func (s *Script) Name() string { return "scripted" }

func (s *Script) fires(kind Kind, tick, slot int) bool {
	for _, e := range s.events {
		if e.Kind == kind && e.Tick == tick && e.Slot == slot {
			return true
		}
	}
	return false
}

// StepFault reports a scripted step fault at (tick, slot).
func (s *Script) StepFault(tick, slot int) bool { return s.fires(Step, tick, slot) }

// Revoke reports a scripted revocation at (tick, slot).
func (s *Script) Revoke(tick, slot int) bool { return s.fires(Revoke, tick, slot) }

// Cancel reports a scripted cancellation at (tick, slot).
func (s *Script) Cancel(tick, slot int) bool { return s.fires(Cancel, tick, slot) }

// Offline reports the deepest scripted dip covering tick.
func (s *Script) Offline(tick int) int {
	off := 0
	for _, e := range s.events {
		if e.Kind != Dip {
			continue
		}
		slots, ticks := e.Slots, e.Ticks
		if slots == 0 {
			slots = 1
		}
		if ticks == 0 {
			ticks = 1
		}
		if tick >= e.Tick && tick < e.Tick+ticks && slots > off {
			off = slots
		}
	}
	return off
}

// RetryPolicy governs recovery of faulted sessions: how many placement
// attempts a session gets and how long it backs off between them. The zero
// value means "use the defaults" (3 attempts, base 2, cap 16); MaxAttempts
// 1 disables recovery entirely — the no-recovery baseline chaos reports
// compare against.
type RetryPolicy struct {
	// MaxAttempts is the total placement budget including the first
	// admission (0 = default 3; 1 = a fault is fatal).
	MaxAttempts int
	// BackoffBase is the backoff before the first retry in ticks; each
	// further retry doubles it (0 = default 2).
	BackoffBase int
	// BackoffMax caps the exponential growth (0 = default 16).
	BackoffMax int
}

// Validate reports the first invalid RetryPolicy field by name.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("faults: RetryPolicy.MaxAttempts must be non-negative (0 = default 3), got %d", p.MaxAttempts)
	}
	if p.BackoffBase < 0 {
		return fmt.Errorf("faults: RetryPolicy.BackoffBase must be non-negative (0 = default 2), got %d", p.BackoffBase)
	}
	if p.BackoffMax < 0 {
		return fmt.Errorf("faults: RetryPolicy.BackoffMax must be non-negative (0 = default 16), got %d", p.BackoffMax)
	}
	return nil
}

// WithDefaults resolves the zero fields to the documented defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 2
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = 16
	}
	return p
}

// NodeChaos tunes unscripted node-level chaos for a cluster: whole-node
// crashes with timed restarts. CrashRate is a probability in [0, 1]; the
// zero value injects nothing. Like the slot-level Config, every decision is
// a pure hash of (seed, kind, tick, node), so a chaos schedule is
// bit-identical across worker counts, decode paths, and REPRO_PROCS.
type NodeChaos struct {
	// Seed drives every draw; a fixed seed fixes the whole node schedule.
	Seed uint64
	// CrashRate is the per-node-per-tick probability a crash begins.
	CrashRate float64
	// RecoverTicks is the restart delay: a crash beginning at tick s keeps
	// the node down over [s, s+RecoverTicks) (0 = default 24).
	RecoverTicks int
}

// Validate reports the first invalid NodeChaos field by name.
func (c NodeChaos) Validate() error {
	if c.CrashRate < 0 || c.CrashRate > 1 || c.CrashRate != c.CrashRate {
		return fmt.Errorf("faults: NodeChaos.CrashRate must be a probability in [0, 1], got %v", c.CrashRate)
	}
	if c.RecoverTicks < 0 {
		return fmt.Errorf("faults: NodeChaos.RecoverTicks must be non-negative (0 = default 24), got %d", c.RecoverTicks)
	}
	return nil
}

// WithDefaults resolves a zero RecoverTicks to the documented default.
func (c NodeChaos) WithDefaults() NodeChaos {
	if c.RecoverTicks == 0 {
		c.RecoverTicks = 24
	}
	return c
}

// Enabled reports whether the config injects anything at all.
func (c NodeChaos) Enabled() bool {
	return c.CrashRate > 0
}

// NodePlan is a seeded node-lifecycle chaos schedule over the simulated
// tick clock — the node-level sibling of Plan. Every method is a pure
// retroactive window scan (the same trick Plan.Offline uses), so the
// cluster can ask "is node n down at tick t?" from any tick without
// replaying history and the answer never depends on execution order.
type NodePlan struct {
	cfg NodeChaos
}

// NewNodePlan validates cfg and builds a seeded plan with defaults applied.
func NewNodePlan(cfg NodeChaos) (*NodePlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NodePlan{cfg: cfg.WithDefaults()}, nil
}

// Config returns the plan's (defaulted) configuration.
func (p *NodePlan) Config() NodeChaos { return p.cfg }

// Dead reports whether a crash window covers (tick, node): a crash drawn at
// tick s keeps the node down over [s, s+RecoverTicks). Overlapping crashes
// do not stack — the node is simply down until the last window ends.
func (p *NodePlan) Dead(tick, node int) bool {
	if p.cfg.CrashRate == 0 {
		return false
	}
	from := tick - p.cfg.RecoverTicks + 1
	if from < 0 {
		from = 0
	}
	for s := from; s <= tick; s++ {
		if draw(p.cfg.Seed, Crash, s, node) < p.cfg.CrashRate {
			return true
		}
	}
	return false
}

// Backoff returns the simulated-tick delay before retry number attempt
// (1-based) of the session with the given submission index: exponential in
// the attempt, capped at BackoffMax, plus a seeded jitter in [0,
// BackoffBase) hashed from (seed, index, attempt) so contending sessions
// de-synchronize deterministically. Always at least 1 tick, so a faulted
// session can never be re-placed on the tick it faulted.
func (p RetryPolicy) Backoff(seed uint64, index, attempt int) int {
	p = p.WithDefaults()
	if attempt < 1 {
		attempt = 1
	}
	shift := attempt - 1
	if shift > 30 {
		shift = 30
	}
	d := p.BackoffBase << shift
	if d > p.BackoffMax {
		d = p.BackoffMax
	}
	if p.BackoffBase > 1 {
		d += int(draw(seed, Kind(17), index, attempt) * float64(p.BackoffBase))
	}
	if d < 1 {
		d = 1
	}
	return d
}
