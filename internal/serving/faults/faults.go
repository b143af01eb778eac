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
// private cache grant is forcibly released — an eviction storm — and its
// decode state is torn down with it), request
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
	// Revoke forcibly releases the target slot's cache grant and tears
	// down the decode state behind it; the session
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

// Plan is the seeded chaos mix at one intensity rate: step faults at rate,
// revocations at rate/2, cancellations at rate/4, and capacity dips starting
// at rate/2, each taking dipSlots slot offline for dipTicks ticks.
type Plan struct {
	seed uint64
	rate float64
}

// The shape of every dip a Plan draws.
const (
	dipSlots = 1
	dipTicks = 4
)

// Mix validates the rate and builds the seeded plan. This is what dipbench
// -faults uses.
func Mix(rate float64, seed uint64) (*Plan, error) {
	if rate < 0 || rate > 1 || rate != rate {
		return nil, fmt.Errorf("faults: mix rate must be a probability in [0, 1], got %v", rate)
	}
	return &Plan{seed: seed, rate: rate}, nil
}

// StepFault draws the slot's transient-fault decision for this tick.
func (p *Plan) StepFault(tick, slot int) bool {
	return draw(p.seed, Step, tick, slot) < p.rate
}

// Revoke draws the slot's grant-revocation decision for this tick.
func (p *Plan) Revoke(tick, slot int) bool {
	return draw(p.seed, Revoke, tick, slot) < p.rate/2
}

// Cancel draws the slot's cancellation decision for this tick.
func (p *Plan) Cancel(tick, slot int) bool {
	return draw(p.seed, Cancel, tick, slot) < p.rate/4
}

// Offline reports how many slots are down at tick: a dip starting at tick s
// (drawn per tick from the seed) covers [s, s+dipTicks). Overlapping dips
// do not stack, so offline capacity is bounded by dipSlots regardless of
// rate.
func (p *Plan) Offline(tick int) int {
	if p.rate == 0 {
		return 0
	}
	for s := max(tick-dipTicks+1, 0); s <= tick; s++ {
		if draw(p.seed, Dip, s, 0) < p.rate/2 {
			return dipSlots
		}
	}
	return 0
}

// draw hashes (seed, kind, tick, slot) to a uniform float64 in [0, 1). The
// finalizer is splitmix64's: every input bit avalanches, so neighboring
// ticks and slots draw independently. The conversion rounds the scaling
// product, so Backoff's multiply cannot fuse into it on arm64.
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
	return float64(float64(x>>11) / (1 << 53))
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
// attempts a session gets. The zero value means the default 3 attempts;
// MaxAttempts 1 disables recovery entirely — the no-recovery baseline chaos
// reports compare against. Between attempts a session backs off (Backoff).
type RetryPolicy struct {
	// MaxAttempts is the total placement budget including the first
	// admission (0 = default 3; 1 = a fault is fatal).
	MaxAttempts int
}

// Validate reports an invalid MaxAttempts by name.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("faults: RetryPolicy.MaxAttempts must be non-negative (0 = default 3), got %d", p.MaxAttempts)
	}
	return nil
}

// WithDefaults resolves a zero MaxAttempts to the documented default.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	return p
}

// The retry backoff: backoffBase ticks before the first retry, doubling per
// further retry up to backoffMax.
const (
	backoffBase = 2
	backoffMax  = 16
)

// NodeChaos tunes unscripted node-level chaos for a cluster: whole-node
// crashes with timed restarts. CrashRate is a probability in [0, 1]; the
// zero value injects nothing. Like the slot-level Plan, every decision is
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
// the attempt, capped at backoffMax, plus a seeded jitter in [0,
// backoffBase) hashed from (seed, index, attempt) so contending sessions
// de-synchronize deterministically. Always at least backoffBase ticks, so a
// faulted session can never be re-placed on the tick it faulted.
func (RetryPolicy) Backoff(seed uint64, index, attempt int) int {
	attempt = max(attempt, 1)
	d := min(backoffBase<<min(attempt-1, 30), backoffMax)
	return d + int(draw(seed, Kind(17), index, attempt)*backoffBase)
}
