package serving

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/eval"
	"repro/internal/parallel"
	"repro/internal/serving/obs"
	"repro/internal/tensor"
)

// Run drains the workload to completion under continuous batching and
// returns the aggregate report: Drive over this one engine, every arrival
// placed straight onto it. Each tick the engine (1) queues the workload's
// arrivals — shedding arrivals beyond the admission budget and, under
// sustained pressure at that budget, queued optional work — (2) applies
// the fault plan to the running batch in slot order and parks sessions
// displaced by a capacity dip, (3) fills free batch slots with the
// scheduler's picks among entries not still backing off — resuming
// suspended sessions exactly like fresh entries — (4) lets the preemptor
// displace running sessions that queued entries strictly outrank, (5)
// advances every active session by the token quantum, and (6) retires
// drained sessions, reporting them back to the workload (closed-loop
// feedback). Everything runs on the simulated tick clock, so reports are
// bit-identical across runs and worker counts; only the Wall annotation
// varies.
func (e *Engine) Run() (*Report, error) {
	// A lone engine freezes nothing, so no stretch without progress is a
	// livelock: a long capacity dip legitimately ticks through.
	ticks, err := Drive(e.w, e.cfg.Seed, []*Engine{e}, solo{e}, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return e.Finalize(ticks), nil
}

// Control is what differs between driving one engine and driving a cluster
// of them; Drive is everything else.
type Control interface {
	// Before runs at the top of each executed tick, ahead of its arrivals:
	// node lifecycle, failure detection, re-placing what the ingress held.
	// Terminations it causes (a held request shed at the door) are appended
	// to fin, which the workload hears this same tick.
	Before(tick int, fin []Finished) ([]Finished, error)
	// Place delivers one arrival — an index Drive has validated and never
	// delivered before — by Inject on the engine of its choosing, or holds
	// it. shed reports an arrival admission control dropped at the door.
	Place(idx, tick int) (shed bool, err error)
	// Frozen reports an engine that holds its state but must not step.
	Frozen(engine int) bool
	// NextWake is the earliest future tick Before has work at; a
	// fast-forward never jumps past it.
	NextWake(tick int) (next int, ok bool)
	// Pending counts work held outside every engine's queue.
	Pending() int
}

// solo is the one-engine Control: pass-through placement, nothing else.
type solo struct{ *Engine }

func (solo) Before(_ int, fin []Finished) ([]Finished, error) { return fin, nil }
func (solo) Frozen(int) bool                                  { return false }
func (solo) NextWake(int) (int, bool)                         { return 0, false }
func (solo) Pending() int                                     { return 0 }

func (s solo) Place(idx, tick int) (bool, error) {
	shed := s.Inject(idx, tick, s.order)
	if !shed {
		s.order++
	}
	return shed, nil
}

// Drive is the run loop: it drains the workload through the engines on one
// shared tick clock and returns the tick count the reports close at. Each
// tick runs ctl.Before, shuffles the workload's same-tick arrivals with the
// seeded RNG (ties are deterministic without privileging emission order) and
// places them one at a time. The unfrozen engines then step: every
// openTick in index order, one worker-pool fan-out over the decode units
// they open, and every closeTick in index order. Units share no mutable
// state and only the serial phases emit events, so the outcome is
// independent of the worker pool. A tick on which nothing decoded
// fast-forwards the clock to the earliest event that can change that.
// horizon bounds how far the clock may run with no engine stepping and no
// arrival.
func Drive(w Workload, seed uint64, engines []*Engine, ctl Control, horizon int) (ticks int, err error) {
	for _, e := range engines {
		if err := e.begin(); err != nil {
			return 0, err
		}
	}
	reqs := w.Requests()
	delivered := make([]bool, len(reqs))
	rng := tensor.NewRNG(seed)
	var finished []Finished
	var shuffle []int
	// Built once per run, so a steady-state tick allocates nothing here.
	var units []unit
	decodeUnits := func(_, lo, hi int) {
		for _, u := range units[lo:hi] {
			u.run()
		}
	}
	tick, lastProgress := 0, 0
	for !w.Done() || ctl.Pending() > 0 || busy(engines) {
		if finished, err = ctl.Before(tick, finished); err != nil {
			return 0, err
		}
		arrivals := w.Next(tick, finished)
		finished = finished[:0]
		if len(arrivals) > 1 {
			shuffle = shuffle[:0]
			for _, j := range rng.Perm(len(arrivals)) {
				shuffle = append(shuffle, arrivals[j])
			}
			arrivals = shuffle
		}
		for _, idx := range arrivals {
			if idx < 0 || idx >= len(reqs) {
				return 0, fmt.Errorf("serving: workload %q yielded request index %d outside its %d-request universe",
					w.Name(), idx, len(reqs))
			}
			if delivered[idx] {
				return 0, fmt.Errorf("serving: workload %q yielded request %d (%q) twice", w.Name(), idx, reqs[idx].ID)
			}
			delivered[idx] = true
			shed, err := ctl.Place(idx, tick)
			if err != nil {
				return 0, err
			}
			if shed {
				finished = append(finished, Finished{Index: idx, ID: reqs[idx].ID, Tick: tick})
			}
		}
		if units, err = openAll(tick, engines, ctl, units[:0]); err != nil {
			return 0, err
		}
		parallel.ForWorker(len(units), 1, decodeUnits)
		for n, e := range engines {
			if !ctl.Frozen(n) {
				finished = append(finished, e.closeTick(tick)...)
			}
		}
		stepped := len(units) > 0
		if stepped || len(arrivals) > 0 {
			lastProgress = tick
		}
		if tick-lastProgress > horizon {
			return 0, fmt.Errorf("serving: no engine progressed for %d ticks (tick %d): work is frozen beyond every restart and probation horizon",
				horizon, tick)
		}
		if stepped {
			tick++
			continue
		}
		// Nothing decoded: an arrival gap, a closed-loop think pause, every
		// queued session backing off after a fault, a full capacity dip, a
		// frozen node. Fast-forward the simulated clock to the earliest event
		// that can change that — no spinning through sparse gaps.
		next, ok := w.NextArrival()
		if ok && next <= tick {
			ok = false // scheduled in the past yet not yielded: no help
		}
		queued := ctl.Pending()
		for _, e := range engines {
			queued += len(e.queue)
			if nt, nok := e.nextEvent(tick); nok && (!ok || nt < next) {
				next, ok = nt, true
			}
		}
		if nt, nok := ctl.NextWake(tick); nok && (!ok || nt < next) {
			next, ok = nt, true
		}
		if len(finished) > 0 && (!ok || tick+1 < next) {
			// Terminations (cancel, retry exhaustion, shedding) this tick
			// have not been reported yet; a closed-loop workload may
			// schedule follow-ups once it hears. Deliver them next tick.
			next, ok = tick+1, true
		}
		if !ok {
			if w.Done() && queued == 0 {
				break // faults drained the last sessions this tick
			}
			return 0, fmt.Errorf("serving: workload %q stalled at tick %d: not done, nothing active, next arrival %d (ok=%v)",
				w.Name(), tick, next, ok)
		}
		tick = next
	}
	return tick, nil
}

// openAll runs openTick on every unfrozen engine in index order and returns
// units with the tick's decode units appended.
func openAll(tick int, engines []*Engine, ctl Control, units []unit) (_ []unit, err error) {
	for n, e := range engines {
		if ctl.Frozen(n) {
			continue
		}
		if units, err = e.openTick(tick, units); err != nil {
			return units, fmt.Errorf("serving: engine %d: %w", n, err)
		}
	}
	return units, nil
}

// busy reports whether any engine still holds queued or active sessions.
func busy(engines []*Engine) bool {
	for _, e := range engines {
		if len(e.queue) > 0 || len(e.active) > 0 {
			return true
		}
	}
	return false
}

// emitFinish records a session's terminal event (no-op with tracing off,
// and for shed sessions, whose shed or degrade event is the terminal one).
// OK finishes carry the 1-based sub-quantum drain step, the same
// path-identical offset the report's FinishSubStep uses.
func (e *Engine) emitFinish(tick, slot int, sess *Session) {
	if e.obs == nil || sess.Outcome == OutcomeShed {
		return
	}
	detail := obs.DetailOK
	sub := sess.finishSub
	switch sess.Outcome {
	case OutcomeFailed:
		detail, sub = obs.DetailFailed, 0
	case OutcomeCancelled:
		detail, sub = obs.DetailCancelled, 0
	}
	e.obs.Emit(obs.Event{Tick: tick, SubStep: sub, Slot: slot, Kind: obs.KindFinish, Session: sess.ID, Detail: detail})
}

// emitFault records an injected fault landing on a running session.
func (e *Engine) emitFault(tick, slot int, sess *Session, detail string) {
	if e.obs != nil {
		e.obs.Emit(obs.Event{Tick: tick, Slot: slot, Kind: obs.KindFault, Session: sess.ID, Detail: detail})
	}
}

// obsTickStart feeds the tick-start telemetry (queue depth, the step-batch
// event) and returns the active streams' decoded-token total so obsTickEnd
// can difference it. With tracing off it is a zero-allocation no-op (pinned
// by TestDisabledObserverAddsNoTickAllocations).
func (e *Engine) obsTickStart(tick int, active []*Session, queued int) int {
	if e.obs == nil {
		return 0
	}
	e.obs.ObserveQueue(tick, queued)
	e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindStepBatch, Detail: widthDetail(len(active))})
	return decodedTotal(active)
}

// obsTickEnd feeds the executed tick's decoded tokens and, under ArbShared,
// records the slot-order commit of the tick's buffered accesses.
func (e *Engine) obsTickEnd(tick int, active []*Session, pre int) {
	if e.obs == nil {
		return
	}
	e.obs.ObserveDecode(tick, decodedTotal(active)-pre)
	if e.cfg.Arb == ArbShared {
		e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindCommit, Detail: widthDetail(len(active))})
	}
}

// decodedTotal sums the sessions' cumulative decoded tokens.
func decodedTotal(active []*Session) (n int) {
	for _, s := range active {
		n += s.stream.Decoded()
	}
	return n
}

// widthDetail renders a batch width for the event log.
func widthDetail(n int) string { return "width=" + strconv.Itoa(n) }

// degradeTicks is how many consecutive ticks the queue must sit at the shed
// budget before degrade runs.
const degradeTicks = 4

// degrade sheds queued optional work under sustained pressure: fresh,
// deadline-less sessions (never-admitted best-effort requests) are dropped
// newest-first until the queue dips below the shed budget. Suspended
// sessions are never degraded away — work already invested is kept — and
// deadlined ones are exactly what degradation is making room for.
func (e *Engine) degrade(tick int) {
	for len(e.queue) >= e.cfg.ShedQueueBudget {
		drop := -1
		for i, s := range e.queue {
			if s.state == Queued && s.DeadlineTick == NoDeadline && (drop < 0 || s.Order > e.queue[drop].Order) {
				drop = i
			}
		}
		if drop < 0 {
			break
		}
		sess := e.take(drop)
		if e.obs != nil {
			e.obs.Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindDegrade, Session: sess.ID})
		}
		e.terminate(sess, tick, -1, OutcomeShed)
	}
}

// deadlineOf resolves a request's absolute deadline tick at arrival.
func deadlineOf(arriveTick int, slo SLO) int {
	if slo.DeadlineTicks <= 0 {
		return NoDeadline
	}
	return arriveTick + slo.DeadlineTicks
}

// unit is one decode task of Drive's fan-out: one session of a partitioned
// engine, or, with sess nil, an ArbShared engine's whole lockstep decode.
type unit struct {
	e    *Engine
	sess *Session
}

// run advances the unit through the tick's quantum. A session steps on its
// own, into its private cache, and records its finish sub-step as decode does.
func (u unit) run() {
	if u.sess == nil {
		u.e.decode(u.e.active)
		return
	}
	for q := 1; q <= u.e.cfg.Quantum && u.sess.stream.Step(); q++ {
		if u.sess.stream.Done() {
			u.sess.finishSub = q
		}
	}
}

// decode is a shared-cache engine's decode unit: the active batch advances
// by the token quantum in lockstep sub-steps. Sub-step q decodes each
// unfinished session, in slot order, by one token: through one fused
// eval.BatchDecode, which walks every weight matrix once for the whole
// batch, or — under NoFuse, and for a lone session — through each stream's
// own Decode. A sub-step of several columns first opens the engine's
// eval.SubStepView, so a column's masks count the units earlier columns
// listed as cached. Both paths decode a layer's columns in slot order, so
// either is bit-identical to the other (the fuse tests pin it).
// The pending accesses are then committed in slot order by one eval.Commit, so
// the shared cache sees one interleaving for any worker count, and the
// engine's step prices the sub-step once: a unit several columns list is
// fetched once, and each column's token costs the whole step. A session
// that drains records q, its 1-based finish sub-step.
func (e *Engine) decode(active []*Session) {
	for q := 1; q <= e.cfg.Quantum; q++ {
		e.batch = e.batch[:0]
		for _, s := range active {
			if !s.stream.Done() {
				e.batch = append(e.batch, s.stream)
			}
		}
		if len(e.batch) == 0 {
			return
		}
		if len(e.batch) > 1 {
			if e.view == nil {
				e.view = new(eval.SubStepView)
			}
			e.view.Open(e.batch)
		}
		if e.cfg.NoFuse || len(e.batch) == 1 {
			for _, st := range e.batch {
				st.Decode()
			}
		} else {
			eval.BatchDecode(e.batch, &e.arena)
		}
		e.stepSeconds += eval.Commit(e.batch, e.step)
		for _, s := range active {
			// Done and not yet stamped: drained on this sub-step — unless it
			// never stepped at all (a request shorter than one window), which
			// keeps sub-step 0.
			if s.finishSub == 0 && s.stream.Done() && s.stream.Decoded() > 0 {
				s.finishSub = q
			}
		}
	}
}
