// Package serving is the multi-stream decode engine: many independent
// sessions — each its own token stream, scheme state, KV caches, and
// transfer meter — run against one shared DRAM cache budget. It models the
// server-side analogue of the paper's on-device setting: per-user decode
// streams contending for a fixed weight-cache allocation.
//
// Requests enter through a Workload — a deterministic source of timestamped
// arrivals on the simulated tick clock (FixedBatch, PoissonArrivals,
// ClosedLoop, or a replayed Trace) — each carrying an SLO class (priority
// and deadline ticks). A pluggable Scheduler (FCFS, strict priority, or
// earliest-deadline-first) orders the admission queue; continuous batching
// refills a slot the moment its session finishes; and a pluggable
// Preemptor (none, deadline) may suspend a running session whose
// pressure a queued entry strictly outranks, resuming its retained stream
// later (see Preemptor). Each tick the engine advances every active session
// by a token quantum in lockstep sub-steps, one fused multi-session step per
// token, through eval.Stream — the same per-token machinery SystemEvaluate
// uses, so a session evaluated alone is bit-identical to a solo
// SystemEvaluate run.
//
// Cache arbitration (see ArbPolicy) decides how the plan's DRAM cache
// budget is split across concurrent sessions: over-committed per-session
// caches (exclusive), equal partitions (fair-share), or one genuinely shared
// cache with tick-ordered access commits (shared).
//
// Determinism contract: the engine runs on simulated time. Given a fixed
// seed (same-tick arrivals are shuffled by a seeded RNG) every arrival,
// admission, per-session output, queueing delay, SLO verdict, and cache
// statistic is bit-identical for any worker count. Partitioned sessions
// share no mutable state; the shared cache is only written in the serial
// commit phase, in slot order. Wall-clock time appears only in the Report's
// Wall annotation.
package serving

import (
	"fmt"
	"reflect"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// SLO is a request's service-level objective class.
type SLO struct {
	// Class labels the request on its report row and as the detail of its
	// arrive and admit events ("" reports as "default" there). Classes are free-form —
	// "interactive", "batch", ….
	Class string
	// Priority orders admission under the priority scheduler (higher wins).
	Priority int
	// DeadlineTicks is the budget, in simulated ticks after arrival, for the
	// session to finish; 0 means no deadline (vacuously attained).
	DeadlineTicks int
}

// Request is one decode job: a token stream evaluated under a sparsity
// scheme, with an SLO class. The scheme is cloned at admission, so the same
// instance may back many requests.
type Request struct {
	// ID is unique within a workload: the event log, the Chrome trace's
	// per-session tracks and the cluster's tenant key (the prefix before the
	// first '/') all key on it.
	ID     string
	Scheme sparsity.Scheme
	Tokens []int
	SLO    SLO
}

// Config tunes the engine.
type Config struct {
	// System supplies the device, eviction policy, window, and stream
	// truncation — the same knobs as a solo SystemEvaluate. Belady is
	// rejected: its oracle needs a fixed single-stream future.
	System eval.SystemConfig
	// Arb selects the cache-budget arbitration policy.
	Arb ArbPolicy
	// Sched orders the admission queue (nil = FCFS).
	Sched Scheduler
	// Preempt decides mid-run slot takeovers (nil = NoPreempt): when a
	// queued entry's deadline or priority pressure strictly exceeds a
	// running session's, the victim is suspended (its stream state kept,
	// its cache grant released per Arb) and re-queued for a later resume.
	Preempt Preemptor
	// MaxActive is the batch width: how many sessions decode concurrently.
	// Defaults to 4. It is deliberately not derived from the worker-pool
	// size — batch width shapes cache arbitration (fair shares are
	// budget/MaxActive) and admission ticks, so tying it to the host would
	// break the bit-identical-for-any-worker-count contract.
	MaxActive int
	// Quantum is how many tokens each active session advances per tick
	// (default 8). Every token is committed and priced as it is decoded,
	// regardless of quantum: alone, or in slot order in an ArbShared
	// engine's one step per sub-step.
	Quantum int
	// Seed drives the same-tick arrival shuffle. Fixed seed ⇒ fixed
	// admission tiebreaks ⇒ bit-identical outputs and cache statistics.
	Seed uint64
	// NoFuse decodes each session of an ArbShared engine with its own Decode
	// — the reference the bit-identity suites and bench/ compare the fused
	// step against; by default a multi-session shared batch's sub-step is one
	// fused step that walks every weight matrix once. A partitioned engine
	// never fuses. Only the host work differs: both paths commit and price
	// each sub-step through the same slot-ordered eval.Commit, so reports are
	// bit-identical either way (enforced in tests).
	NoFuse bool

	// Faults injects seeded failures into the engine loop (nil = reliable
	// hardware). Fault draws are pure functions of (seed, tick, slot), so a
	// chaos run keeps the full determinism contract: bit-identical across
	// worker counts and fused/unfused paths. See internal/serving/faults.
	Faults faults.Injector
	// Retry governs recovery of faulted sessions. The zero value resolves
	// to the faults.RetryPolicy defaults (3 attempts, seeded exponential
	// backoff); MaxAttempts 1 disables recovery — the no-recovery baseline.
	Retry faults.RetryPolicy
	// ShedQueueBudget, when positive, is the admission-control budget: an
	// arrival finding the queue already holding that many entries is shed
	// (rejected, never admitted) instead of queued. A budget also degrades
	// gracefully: once the queue has sat at it for degradeTicks consecutive
	// ticks, the engine sheds queued *optional* work — fresh, deadline-less
	// entries, newest first — to keep slack for deadlined requests instead
	// of missing their SLOs. 0 = never shed.
	ShedQueueBudget int

	// Obs attaches a structured-event recorder (see internal/serving/obs):
	// the engine emits one event per control-plane decision — always from
	// the serial loop, never inside a parallel decode phase — and feeds the
	// recorder's moving-window trackers once per executed tick, then
	// attaches the drain-time obs.Snapshot to the Report. The event log is
	// part of the determinism contract: bit-identical across worker counts
	// and fused/unfused decode. nil disables observability entirely; every
	// emission site is guarded on it, so the disabled path adds zero
	// allocations to the tick (pinned by TestDisabledObserverAddsNoTickAllocations).
	// A recorder is single-run: NewEngine rejects one already bound to
	// another engine.
	Obs *obs.Recorder
}

// Session is the one record a request has on an engine, from its arrival in
// Inject until the report. Its embedded SessionMetrics is its report row,
// written where each fact happens: Inject stamps ID, Index, SLO, ArriveTick
// and DeadlineTick; admit, grant, resume, displace and terminate the rest of
// the timeline and counters; and terminate's fold adds what the stream knows
// at the end. The schedulers rank on ArriveTick, DeadlineTick and Order, all
// fixed at arrival, so a suspended session ranks exactly as the fresh
// request did. The same pointer sits in the queue while waiting and in the
// batch while running, and crosses nodes inside a Migrant.
type Session struct {
	SessionMetrics
	// Order is the seeded admission tiebreak: same-tick arrivals are ranked
	// by a shuffle drawn from Drive's seeded RNG and Order increases
	// monotonically across ticks, so sorting by Order alone is seeded FCFS.
	Order int
	// NotBefore is the earliest tick the session may be (re-)placed — a
	// faulted session's retry backoff, or a stranded request's failover
	// backoff. Backfill and preemption scans skip sessions still backing
	// off; schedulers never see the field.
	NotBefore int

	// Lifecycle: only admit, resume, displace, and terminate move state;
	// cause is meaningful while Suspended (and until the next displacement),
	// Outcome once Done.
	state State
	cause Cause

	stream *eval.Stream // nil until admitted, and again once terminated

	// hits/misses are the stream's cache traffic, folded by terminate.
	hits, misses int64
	// finishSub is the 1-based sub-quantum step on which the stream drained
	// (0 only for degenerate streams that never stepped): the sub-tick
	// finish offset that de-quantizes turnaround and SLO accounting.
	finishSub int
	// suspendTick is the tick the session last left its slot.
	suspendTick int
}

// State is a session's position in its lifecycle:
//
//	Queued ──admit──▶ Active ──terminate──▶ Done{ok|failed|cancelled}
//	   │               │  ▲
//	   │        displace  resume
//	   │               ▼  │
//	   │             Suspended{preempt|dip|fault|revoke}
//	   └──terminate──▶ Done{shed}
//
// A transition from any other state is an engine bug and panics.
type State uint8

const (
	// Queued: arrived and waiting for its first slot; no stream yet.
	Queued State = iota
	// Active: holding a batch slot and decoding.
	Active
	// Suspended: displaced from its slot with its stream retained, waiting
	// in the queue to resume (see Cause).
	Suspended
	// Done: terminal (see Outcome).
	Done
)

// String names the state.
func (s State) String() string {
	return [...]string{"queued", "active", "suspended", "done"}[s]
}

// State reports where the session is in its lifecycle.
func (s *Session) State() State { return s.state }

// transition moves the session along one legal edge.
func (s *Session) transition(from, to State) {
	if s.state != from {
		panic(fmt.Sprintf("serving: session %q: illegal transition %v → %v from %v", s.ID, from, to, s.state))
	}
	s.state = to
}

// Cause is why a session left its slot. It selects the row of
// displacements that displace applies, and resume accounting reads it back.
type Cause uint8

const (
	// CausePreempt: a waiting session strictly outranked it.
	CausePreempt Cause = iota
	// CauseDip: its slot went offline (capacity dip, node evacuation).
	CauseDip
	// CauseFault: a transient step fault; decode state survives.
	CauseFault
	// CauseRevoke: its cache grant was revoked, taking the decode state
	// built on it down too.
	CauseRevoke
)

// displacements is the one table of what leaving a slot costs, by cause.
// Every displaced session keeps its stream (traffic, meter, CE sums) and its
// scheduling stamps; the rows differ in what else it keeps. A retained grant
// resumes warm — exclusive stays bit-identical to an uninterrupted solo run
// — and a released one resumes cold at a fresh grant.
var displacements = [...]struct {
	// detail is logged on the suspend event and again on the resume.
	// Revocations log as faults: the reconcilers count both under
	// FaultSuspends against Report.Retries.
	detail string
	// fault, when set, is the injected fault's own event detail, logged
	// first. A fault counts against the session and consumes one attempt of
	// the retry budget — terminating the session as failed when none is
	// left — gates the resume behind the policy's seeded backoff, and
	// prices the wait as recover ticks.
	fault string
	// destructive releases the grant under every partitioned policy and
	// restarts the stream, which re-prefills from token 0 on resume; the
	// other rows release only fair-share grants, because only those free
	// real memory for someone else.
	destructive bool
}{
	CausePreempt: {detail: obs.DetailPreempt},
	CauseDip:     {detail: obs.DetailDip},
	CauseFault:   {detail: obs.DetailFault, fault: obs.DetailStep},
	CauseRevoke:  {detail: obs.DetailFault, fault: obs.DetailRevoke, destructive: true},
}

// Outcome is a session's terminal state in the report.
type Outcome string

const (
	// OutcomeOK: the stream drained to completion.
	OutcomeOK Outcome = "ok"
	// OutcomeFailed: faulted with the retry budget exhausted.
	OutcomeFailed Outcome = "failed"
	// OutcomeCancelled: the request was cancelled mid-stream by a fault
	// event; cancelled sessions are excluded from SLO attainment.
	OutcomeCancelled Outcome = "cancelled"
	// OutcomeShed: rejected at admission control, never admitted.
	OutcomeShed Outcome = "shed"
)

// Engine drains one workload to completion.
type Engine struct {
	m         *model.Model
	cfg       Config
	w         Workload
	reqs      []Request // the workload's request universe
	plan      *hwsim.Plan
	shared    *cache.ModelCache // non-nil under ArbShared
	sessions  []*Session        // by submission index: every request this engine holds or finished
	ran       bool
	wallStart time.Time

	// Run state Drive advances through Inject and the tick halves: the
	// admission queue, the active batch, the admission-rank counter, the
	// arrival order counter of a lone run (a cluster passes its own global
	// order), and the per-tick Finished scratch closeTick returns.
	queue  []*Session
	active []*Session
	rank   int
	order  int
	fin    []Finished
	pre    int // the decoded total obsTickStart hands to obsTickEnd

	// Robustness state: displacements by cause (preemptions, step faults,
	// and revocations report from it), the resolved retry policy, aggregate
	// fault/recovery counters, and the sustained-pressure tick counter
	// driving graceful degradation.
	displaced                [CauseRevoke + 1]int
	retry                    faults.RetryPolicy
	cancels, failed, retries int
	dipSlotTicks             int
	recoverTicks, recoveries int
	shedCount                int
	pressure                 int

	// obs is the optional structured-event recorder (nil = tracing off; the
	// engine guards every emission on it so the disabled path costs nothing
	// on the tick).
	obs *obs.Recorder

	// Per-tick scratch of a shared-cache engine's decode, reused across the
	// run so steady-state ticks do not allocate engine-side: the sub-step's
	// streams, the fused step's arena, the view its columns read (built by
	// the first sub-step of several columns) and the step that prices each
	// sub-step once (nil on a partitioned engine); stepSeconds sums what it
	// priced.
	arena       eval.BatchArena
	batch       []*eval.Stream
	view        *eval.SubStepView
	step        *hwsim.Step
	stepSeconds float64

	// Free lists: the streams and private caches of sessions that no longer
	// hold them, for the next admission and grant to reuse. They are plain
	// slices because only this engine's serial loop and its own tick halves
	// touch them. caps is the capacity every private grant here has; a cache
	// of any other shape (carried in from a differently configured engine)
	// is dropped rather than pooled.
	spareStreams []spareStream
	spareCaches  []*cache.ModelCache
	caps         [][sparsity.NumGroups]int
}

// spareStream is a pooled stream and the request scheme its clone was made
// from, so a request of the same scheme can keep the clone.
type spareStream struct {
	st  *eval.Stream
	src sparsity.Scheme
}

// NewEngine validates the configuration and lays out the shared memory
// plan. The plan's weight groups are the union over the workload's full
// request universe, so heterogeneous scheme mixes are priced consistently
// no matter when each request arrives.
func NewEngine(m *model.Model, cfg Config, w Workload) (*Engine, error) {
	if err := cfg.System.Validate(); err != nil {
		return nil, err
	}
	if cfg.System.Policy == cache.PolicyBelady {
		return nil, fmt.Errorf("serving: Belady eviction needs a fixed single-stream future; use lru/lfu")
	}
	if cfg.Arb < ArbExclusive || cfg.Arb > ArbShared {
		return nil, fmt.Errorf("serving: unknown arbitration policy %d", cfg.Arb)
	}
	if w == nil {
		return nil, fmt.Errorf("serving: no workload")
	}
	if cfg.Sched == nil {
		cfg.Sched = FCFS()
	}
	if cfg.Preempt == nil {
		cfg.Preempt = NoPreempt()
	}
	reqs := w.Requests()
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serving: workload %q has no requests", w.Name())
	}
	if cfg.MaxActive < 0 {
		return nil, fmt.Errorf("serving: Config.MaxActive must be non-negative (0 = default 4), got %d", cfg.MaxActive)
	}
	if cfg.Quantum < 0 {
		return nil, fmt.Errorf("serving: Config.Quantum must be non-negative (0 = default 8), got %d", cfg.Quantum)
	}
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 4
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 8
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, fmt.Errorf("serving: Config.Retry: %w", err)
	}
	if cfg.ShedQueueBudget < 0 {
		return nil, fmt.Errorf("serving: Config.ShedQueueBudget must be non-negative (0 = never shed), got %d", cfg.ShedQueueBudget)
	}
	var groups [sparsity.NumGroups]bool
	var probed []sparsity.Scheme // the distinct scheme values seen so far
	for i, r := range reqs {
		if r.Scheme == nil {
			return nil, fmt.Errorf("serving: request %d (%q) has no scheme", i, r.ID)
		}
		if len(r.Tokens) == 0 {
			return nil, fmt.Errorf("serving: request %d (%q) has no tokens", i, r.ID)
		}
		if r.SLO.DeadlineTicks < 0 {
			return nil, fmt.Errorf("serving: request %d (%q) has negative deadline %d", i, r.ID, r.SLO.DeadlineTicks)
		}
		if probedBefore(probed, r.Scheme) {
			continue
		}
		probed = append(probed, r.Scheme)
		used := hwsim.ProbeGroups(sparsity.Clone(r.Scheme), m)
		for g := range groups {
			groups[g] = groups[g] || used[g]
		}
	}
	plan, err := hwsim.NewPlan(m, cfg.System.Device, hwsim.PlanOpts{
		BytesPerWeight: cfg.System.BytesPerWeight,
		Groups:         groups,
	})
	if err != nil {
		return nil, err
	}
	// Bind last: a config rejected above must leave the caller's recorder
	// free for the corrected retry.
	if cfg.Obs != nil {
		if err := cfg.Obs.Bind(); err != nil {
			return nil, fmt.Errorf("serving: Config.Obs: %w", err)
		}
	}
	e := &Engine{
		m: m, cfg: cfg, w: w, reqs: reqs, plan: plan,
		obs:      cfg.Obs,
		retry:    cfg.Retry.WithDefaults(),
		sessions: make([]*Session, len(reqs)),
		batch:    make([]*eval.Stream, 0, cfg.MaxActive),
		caps:     scaledCaps(plan.Caps, grantShare(cfg)),
	}
	if cfg.Arb == ArbShared {
		e.shared, e.step = plan.NewCache(cfg.System.Policy), plan.NewStep()
	}
	return e, nil
}

// probedBefore reports whether s is one of probed. Requests that share a
// scheme touch the same weight groups, so one probe forward stands for all
// of them.
func probedBefore(probed []sparsity.Scheme, s sparsity.Scheme) bool {
	for _, p := range probed {
		if sameScheme(p, s) {
			return true
		}
	}
	return false
}

// sameScheme reports whether a and b are one scheme: the same pointer, or
// equal values of one comparable type. A scheme of a type == would panic on
// is the same as nothing.
func sameScheme(a, b sparsity.Scheme) bool {
	ta := reflect.TypeOf(a)
	return ta == reflect.TypeOf(b) && ta.Comparable() && a == b
}

// SharedCache returns the shared cache under ArbShared, else nil.
func (e *Engine) SharedCache() *cache.ModelCache { return e.shared }

// admit gives a queued session its first slot: an arbitrated cache grant, a
// stream over a clone of the request's scheme, and the next admission rank.
func (e *Engine) admit(sess *Session, tick, slot int) error {
	req := &e.reqs[sess.Index]
	var mc *cache.ModelCache
	if e.cfg.Arb == ArbShared {
		mc, sess.Share = e.shared, 1
	} else {
		mc = e.grant(sess)
	}
	st, err := e.newStream(req, eval.StreamOpts{Plan: e.plan, Cache: mc})
	if err != nil {
		return fmt.Errorf("serving: admitting %q: %w", req.ID, err)
	}
	sess.transition(Queued, Active)
	sess.stream = st
	sess.AdmitRank, sess.AdmitTick = e.rank, tick
	e.rank++
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindAdmit, Session: sess.ID, Detail: className(sess.SLO)})
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindGrant, Session: sess.ID, Detail: shareDetail(sess.Share)})
	}
	return nil
}

// resume puts a suspended session back in a slot: its retained stream picks
// up where it stopped (or re-prefills, after a revocation). A stream that
// still holds a cache — an exclusive session's private one, carried across
// nodes if it migrated, or the shared cache — keeps it; one whose grant was
// released is granted a fresh cache at the policy's current share.
func (e *Engine) resume(sess *Session, tick, slot int) {
	sess.transition(Suspended, Active)
	delay := tick - sess.suspendTick
	sess.ResumeDelayTicks += delay
	if displacements[sess.cause].fault != "" {
		// Time-to-recover: fault tick → the tick the session is re-placed.
		sess.RecoverTicks += delay
		e.recoverTicks += delay
		e.recoveries++
	}
	regranted := sess.stream.Cache() == nil
	if regranted {
		sess.stream.Regrant(e.grant(sess))
	}
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindResume, Session: sess.ID, Detail: displacements[sess.cause].detail})
		if regranted {
			e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindGrant, Session: sess.ID, Detail: shareDetail(sess.Share)})
		}
	}
}

// newStream builds the stream a session is admitted with, recycling the
// newest spare when there is one: a spare whose clone was made from the
// request's own scheme keeps that clone, any other is given a fresh one.
// Reuse leaves the spare as NewStreamWith would build it, so which spare a
// request gets changes nothing it reports.
func (e *Engine) newStream(req *Request, opts eval.StreamOpts) (*eval.Stream, error) {
	n := len(e.spareStreams)
	if n == 0 {
		return eval.NewStreamWith(e.m, sparsity.Clone(req.Scheme), req.Tokens, e.cfg.System, opts)
	}
	i := n - 1
	for j := i; j >= 0; j-- {
		if sameScheme(e.spareStreams[j].src, req.Scheme) {
			i = j
			break
		}
	}
	sp := e.spareStreams[i]
	e.spareStreams[i] = e.spareStreams[n-1]
	e.spareStreams = e.spareStreams[:n-1]
	s := sp.st.Scheme()
	if !sameScheme(sp.src, req.Scheme) {
		s = sparsity.Clone(req.Scheme)
	}
	return sp.st, sp.st.Reuse(e.m, s, req.Tokens, e.cfg.System, opts)
}

// spareCache pools a private cache no session holds any more, if it has
// this engine's grant shape. The shared cache is never pooled.
func (e *Engine) spareCache(mc *cache.ModelCache) {
	if mc != nil && mc != e.shared && mc.Matches(e.cfg.System.Policy, e.caps, e.plan.NUnits) {
		e.spareCaches = append(e.spareCaches, mc)
	}
}

// place puts the scheduler's pick into a slot, admitting or resuming it.
func (e *Engine) place(sess *Session, tick, slot int) error {
	if sess.state == Suspended {
		e.resume(sess, tick, slot)
		return nil
	}
	return e.admit(sess, tick, slot)
}

// shareDetail renders a grant's budget fraction for the event log; -1
// formats shortest-round-trip, so the detail is bit-stable wherever the
// report itself is.
func shareDetail(share float64) string {
	return "share=" + strconv.FormatFloat(share, 'g', -1, 64)
}

// displace takes a running session out of its slot and back into the queue
// as the same record, applying the cause's row of displacements; the caller
// frees or refills the slot. A fault terminates the session as failed
// instead when its retry budget is exhausted. Events go out in the order
// fault → suspend → release → retry.
func (e *Engine) displace(sess *Session, tick, slot int, cause Cause) {
	row := displacements[cause]
	e.displaced[cause]++
	if row.fault != "" {
		e.emitFault(tick, slot, sess, row.fault)
		sess.Faults++
		// Placement attempts consumed so far: the first admission plus
		// every granted retry.
		if sess.Retries+1 >= e.retry.MaxAttempts {
			e.terminate(sess, tick, slot, OutcomeFailed)
			return
		}
		sess.Retries++
		e.retries++
	}
	if cause == CausePreempt {
		sess.Preemptions++ // the per-session share of displaced[CausePreempt]
	}
	sess.transition(Active, Suspended)
	sess.cause, sess.suspendTick, sess.NotBefore = cause, tick, 0
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindSuspend, Session: sess.ID, Detail: row.detail})
	}
	if row.destructive || e.cfg.Arb == ArbFairShare {
		e.spareCache(e.detach(sess))
		if row.destructive {
			sess.stream.Restart()
		}
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindRelease, Session: sess.ID})
		}
	}
	if row.fault != "" {
		backoff := e.retry.Backoff(e.cfg.Seed, sess.Index, sess.Retries)
		sess.NotBefore = tick + backoff
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindRetry, Session: sess.ID,
				Detail: retryDetail(sess.Retries+1, backoff)})
		}
	}
	e.queue = append(e.queue, sess)
}

// retryDetail renders a granted retry for the event log.
func retryDetail(attempt, backoff int) string {
	var buf [48]byte
	b := append(buf[:0], "attempt="...)
	b = strconv.AppendInt(b, int64(attempt), 10)
	b = append(b, " backoff="...)
	b = strconv.AppendInt(b, int64(backoff), 10)
	return string(b)
}

// detach uncouples the session's stream from its cache, handing that cache
// back (nil if already released). displace and terminate pool it — the
// grant's memory is free for the next grant — while a migration hop ships a
// private one with the session.
func (e *Engine) detach(sess *Session) *cache.ModelCache {
	mc := sess.stream.Cache()
	sess.stream.Release()
	return mc
}

// terminate is the single exit from the lifecycle: it stamps the outcome
// and finish tick, counts and logs the outcome, and posts the Finished
// notice Drive hands back to the workload. Its fold completes the
// session's row from the stream — the end-of-stream facts and the cache
// traffic — so the report still prices the partial work of failed and
// cancelled sessions, and then returns the stream (decoder and KV slots,
// scheme clone, meter, density accumulator, pending buffers) and any
// private cache to the engine's free lists: a finished record holds no
// decode state. Shed sessions leave from the queue, never having had a
// stream — the caller has logged the shed or degrade event that stands in
// for a finish — and everything else from a slot.
func (e *Engine) terminate(sess *Session, tick, slot int, oc Outcome) {
	from := Active
	if oc == OutcomeShed {
		from = Queued
	}
	sess.transition(from, Done)
	sess.FinishTick, sess.Outcome = tick, oc
	switch oc {
	case OutcomeFailed:
		e.failed++
	case OutcomeShed:
		e.shedCount++
	}
	e.fold(sess)
	if st := sess.stream; st != nil {
		e.spareCache(e.detach(sess))
		e.spareStreams = append(e.spareStreams, spareStream{st: st, src: e.reqs[sess.Index].Scheme})
		sess.stream = nil
	}
	e.emitFinish(tick, slot, sess)
	e.fin = append(e.fin, Finished{Index: sess.Index, ID: sess.ID, Tick: tick})
}
