package serving

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/serving/obs"
)

// This file is one engine's share of a tick and the surface a Control works
// through. Drive (engine.go) is the only caller of begin/stepTick/nextEvent;
// a Control's Place calls Inject, and a cluster's lifecycle moves queued or
// suspended sessions between engines for drain and failover with
// ExtractQueue/Evacuate/Accept, carrying private cache state through the
// eval.Stream Release/Regrant hooks. Finalize closes the run.

// begin claims the engine's single run and starts its wall clock.
func (e *Engine) begin() error {
	if e.ran {
		return fmt.Errorf("serving: engine already ran")
	}
	e.ran = true
	e.active = make([]*Session, 0, e.cfg.MaxActive)
	e.wallStart = time.Now() //lint:allow wallclock Wall annotation origin; the run itself advances only on simulated ticks
	return nil
}

// Inject delivers one workload arrival at the given tick: it creates the
// request's Session — the one record it keeps until the report — and queues
// it. idx comes from Control.Place, so Drive has already checked it against
// the request universe and against every index delivered before. The order
// stamp is the caller's monotone arrival counter — a lone engine's own; a
// cluster passes one global counter so FCFS order stays total across nodes —
// and is consumed only when the arrival is queued. Inject reports shed=true
// when admission control drops the arrival at the door: the engine has done
// the shed accounting and event emission, and Drive reports it back to the
// workload as finished (stepTick's notices start over each tick, so the
// door-shed is not repeated there).
func (e *Engine) Inject(idx, tick, order int) (shed bool) {
	req := &e.reqs[idx]
	sess := &Session{
		ID: req.ID, Index: idx, SLO: req.SLO,
		ArriveTick: tick, Order: order, Deadline: deadlineOf(tick, req.SLO),
	}
	e.sessions[idx] = sess
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindArrive, Session: sess.ID, Detail: className(sess.SLO)})
	}
	if e.cfg.ShedQueueBudget > 0 && len(e.queue) >= e.cfg.ShedQueueBudget {
		// Admission control: the queue is at budget, so the arrival
		// is shed outright — it never holds a slot, never decodes,
		// and reports back to the workload as finished next tick.
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindShed, Session: sess.ID})
		}
		e.terminate(sess, tick, -1, OutcomeShed)
		return true
	}
	e.queue = append(e.queue, sess)
	return false
}

// stepTick executes one engine tick after the tick's arrivals have been
// injected: degradation under sustained pressure, the fault plan in slot
// order, backfill, preemption, and — when anything is active — one decode
// quantum with retirements stamped at tick+1. It returns the sessions that
// terminated this tick (sheds via Inject excluded; Drive already has those)
// and stepped=false when nothing decoded, in which case Drive decides how far
// to fast-forward (see nextEvent). The returned slice is scratch reused by
// the next call.
func (e *Engine) stepTick(tick int) (fin []Finished, stepped bool, err error) {
	e.fin = e.fin[:0]
	if e.cfg.ShedQueueBudget > 0 {
		if len(e.queue) >= e.cfg.ShedQueueBudget {
			e.pressure++
		} else {
			e.pressure = 0
		}
		if e.pressure >= degradeTicks {
			e.degrade(tick)
		}
	}
	// Fault application, in slot order on the batch as of tick start, so
	// decisions are pure functions of (seed, tick, slot) and the chaos
	// schedule commutes with worker count and decode-path choice.
	offline := 0
	if e.cfg.Faults != nil {
		if offline = e.cfg.Faults.Offline(tick); offline < 0 {
			offline = 0
		}
		if offline > e.cfg.MaxActive {
			offline = e.cfg.MaxActive
		}
		if offline > 0 && (len(e.active) > 0 || len(e.queue) > 0) {
			e.dipSlotTicks += offline
		}
		live := e.active[:0]
		for slot, s := range e.active {
			switch {
			case e.cfg.Faults.Cancel(tick, slot):
				e.cancels++
				e.emitFault(tick, slot, s, obs.DetailCancel)
				e.terminate(s, tick, slot, OutcomeCancelled)
			case e.cfg.Faults.Revoke(tick, slot) && e.cfg.Arb != ArbShared:
				// An eviction storm takes the session's grant and the
				// decode state built on it; under ArbShared there is no
				// per-session grant to revoke.
				e.displace(s, tick, slot, CauseRevoke)
			case e.cfg.Faults.StepFault(tick, slot):
				e.displace(s, tick, slot, CauseFault)
			default:
				live = append(live, s)
			}
		}
		e.active = live
		// A capacity dip takes the highest-numbered slots offline;
		// displaced sessions park (stream retained) until capacity
		// returns or another slot frees.
		e.shrink(e.cfg.MaxActive-offline, tick)
	}
	for len(e.active) < e.cfg.MaxActive-offline {
		best := e.pick(tick, nil)
		if best < 0 {
			break
		}
		sess := e.take(best)
		if err := e.place(sess, tick, len(e.active)); err != nil {
			return nil, false, err
		}
		e.active = append(e.active, sess)
	}
	// Preemption: with the batch full and sessions still queued, let the
	// preemptor pull rank. Each round displaces the named victim in
	// place (the slot keeps its position, so shared-cache commit order
	// stays the slot order) and places the scheduler-best session among
	// those able to preempt; the loop re-scans because a displaced
	// session re-enters the queue and may itself outrank a third
	// session. Strict preemptors guarantee termination: every takeover
	// strictly lowers the displaced slot's pressure rank. Sessions still
	// backing off cannot preempt — their backoff gates placement however
	// the slot would be obtained.
	for len(e.queue) > 0 && len(e.active) > 0 {
		slot := e.cfg.Preempt.Victim(e.active)
		if slot < 0 {
			break
		}
		qi := e.pick(tick, e.active[slot])
		if qi < 0 {
			break
		}
		sess := e.take(qi)
		e.displace(e.active[slot], tick, slot, CausePreempt)
		if err := e.place(sess, tick, slot); err != nil {
			return nil, false, err
		}
		e.active[slot] = sess
	}
	if len(e.active) == 0 {
		return e.fin, false, nil
	}
	// Telemetry brackets the decode from the serial loop: decode itself
	// never touches the recorder, so the event stream and tracker feed are
	// identical for any worker count and either way of advancing a sub-step.
	pre := e.obsTickStart(tick, e.active, len(e.queue))
	e.decode(e.active)
	e.obsTickEnd(tick, e.active, pre)
	post := tick + 1
	live := e.active[:0]
	for slot, s := range e.active {
		if s.stream.Done() {
			e.terminate(s, post, slot, OutcomeOK)
		} else {
			live = append(live, s)
		}
	}
	e.active = live
	return e.fin, true, nil
}

// nextEvent reports the earliest future tick at which this engine's queue
// can change state on its own: the soonest post-backoff eligibility, or
// tick+1 when an eligible entry is parked behind a capacity dip. ok=false
// means the queue holds nothing that a clock advance alone would unstick
// (the engine then waits on arrivals or migrations).
func (e *Engine) nextEvent(tick int) (next int, ok bool) {
	for _, s := range e.queue {
		t := s.NotBefore
		if t <= tick {
			// Eligible but unplaced: only a dip can cause that; step one
			// tick and re-check capacity.
			t = tick + 1
		}
		if !ok || t < next {
			next, ok = t, true
		}
	}
	return next, ok
}

// pick returns the queue index of the session the scheduler ranks first
// among those past their backoff — and, when a victim is named, able to
// preempt it — or -1 when there is none.
func (e *Engine) pick(tick int, victim *Session) int {
	best := -1
	for i, s := range e.queue {
		if s.NotBefore > tick || victim != nil && !e.cfg.Preempt.Outranks(s, victim) {
			continue
		}
		if best < 0 || e.cfg.Sched.Less(s, e.queue[best]) {
			best = i
		}
	}
	return best
}

// take removes session i from the queue.
func (e *Engine) take(i int) *Session {
	s := e.queue[i]
	e.queue = append(e.queue[:i], e.queue[i+1:]...)
	return s
}

// QueueDepth is the current admission-queue length (router load signal).
func (e *Engine) QueueDepth() int { return len(e.queue) }

// ActiveCount is the number of occupied batch slots (router load signal).
func (e *Engine) ActiveCount() int { return len(e.active) }

// Slots is the configured batch width.
func (e *Engine) Slots() int { return e.cfg.MaxActive }

// Migrant is a session in flight between engines: the record itself —
// Queued, or Suspended with its live stream — plus any private cache the
// stream held, released on the source and re-granted verbatim on the target
// — the simulated analogue of shipping KV/cache state with the session.
// Shared-arbitration sessions never carry a cache; they re-attach to the
// target's shared cache. Fair-share sessions are granted a fresh partition
// by the target at placement, and a revoked exclusive session migrates
// stateless and is re-granted a full budget on resume.
type Migrant struct {
	Sess  *Session
	Cache *cache.ModelCache
}

// extract strikes one queued session from this engine for migration, so
// exactly one node reports it and a later failover can migrate it back (a
// node that crashed, recovered, and rejoined may legitimately re-host a
// request it held before the crash). A suspended session logs a
// KindSuspend/DetailMigrate event and takes displace's detach step — cache
// uncoupled and carried along if private — but stays Suspended under its
// original cause: the hop is not a second displacement.
func (e *Engine) extract(sess *Session, tick int) *Migrant {
	mig := &Migrant{Sess: sess}
	if sess.state == Suspended {
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindSuspend, Session: sess.ID, Detail: obs.DetailMigrate})
		}
		if mc := e.detach(sess); mc != e.shared {
			mig.Cache = mc
		}
	}
	e.sessions[sess.Index] = nil
	return mig
}

// ExtractQueue removes every queued session — fresh and suspended — in queue
// order for placement elsewhere. Used by administrative drain: the node
// stops holding waiting work but keeps decoding its active sessions to
// completion.
func (e *Engine) ExtractQueue(tick int) []*Migrant {
	if len(e.queue) == 0 {
		return nil
	}
	migs := make([]*Migrant, 0, len(e.queue))
	for _, sess := range e.queue {
		migs = append(migs, e.extract(sess, tick))
	}
	e.queue = e.queue[:0]
	return migs
}

// Evacuate fails the node: every active session is displaced in slot order
// as by a capacity dip (stream retained, grant released per policy), then
// the whole queue — the displaced sessions included — is extracted for
// failover placement on surviving nodes.
func (e *Engine) Evacuate(tick int) []*Migrant {
	e.dipSlotTicks += len(e.active)
	e.shrink(0, tick)
	return e.ExtractQueue(tick)
}

// shrink displaces the highest-numbered slots, as by a capacity dip, until
// at most n sessions are running.
func (e *Engine) shrink(n, tick int) {
	for last := len(e.active) - 1; last >= n; last-- {
		e.displace(e.active[last], tick, last, CauseDip)
		e.active = e.active[:last]
	}
}

// Accept adopts a migrant into this engine's queue under its original
// submission index (so reports stay keyed by the workload universe), with
// its arrival stamp, order, deadline, and — if suspended — cause intact; it
// is placed through the ordinary backfill path. Its arrival was already
// admitted and logged on the source, so migration bypasses this node's shed
// budget. A suspended session re-attaches to this engine's shared cache or,
// under ArbExclusive, to the private cache it carried; otherwise resume
// grants it a fresh cache on this engine. The migrant is input from another
// engine, so a session that is running or finished there is rejected rather
// than adopted.
func (e *Engine) Accept(mig *Migrant, tick int) error {
	if !e.ran {
		return fmt.Errorf("serving: Accept outside a run")
	}
	sess := mig.Sess
	if sess == nil {
		return fmt.Errorf("serving: Accept of empty migrant")
	}
	if sess.Index < 0 || sess.Index >= len(e.reqs) {
		return fmt.Errorf("serving: migrant %q index %d outside this engine's %d-request universe",
			sess.ID, sess.Index, len(e.reqs))
	}
	if e.sessions[sess.Index] != nil {
		return fmt.Errorf("serving: migrant %q duplicates request index %d on this engine", sess.ID, sess.Index)
	}
	switch sess.state {
	case Queued:
	case Suspended:
		if sess.stream.Deferred() != (e.cfg.Arb == ArbShared) {
			return fmt.Errorf("serving: session %q cannot migrate between shared and partitioned arbitration", sess.ID)
		}
		switch {
		case e.cfg.Arb == ArbShared:
			sess.stream.Regrant(e.shared)
		case e.cfg.Arb == ArbExclusive && mig.Cache != nil:
			sess.stream.Regrant(mig.Cache)
		}
	default:
		return fmt.Errorf("serving: migrant %q is %v: only queued or suspended sessions migrate", sess.ID, sess.state)
	}
	e.sessions[sess.Index] = sess
	e.queue = append(e.queue, sess)
	return nil
}
