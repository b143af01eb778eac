package serving

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/eval"
	"repro/internal/serving/obs"
)

// SessionMetrics is one finished session's record. Every field is measured
// on the simulated tick clock (or the simulated device model) and is
// bit-identical across runs and worker counts for a fixed seed.
type SessionMetrics struct {
	ID    string
	Index int
	// Point carries the session's KPIs: perplexity, measured density,
	// simulated tok/s and latency, and this session's cache hit rate.
	Point eval.Point
	// Tokens is the surviving decoded prefix; Decoded additionally counts
	// work discarded by destructive-fault restarts (equal without faults).
	Tokens  int
	Decoded int
	// Share is the granted cache-budget fraction.
	Share float64
	SLO   SLO
	// AdmitRank is the session's admission position (0 = first admitted).
	AdmitRank int
	// ArriveTick/AdmitTick/FinishTick are the session's simulated timeline.
	ArriveTick, AdmitTick, FinishTick int
	// QueueTicks is the arrival→admission queueing delay; TurnaroundTicks is
	// the arrival→finish span in whole ticks (FinishTick − ArriveTick).
	QueueTicks, TurnaroundTicks int
	// FinishSubStep is the 1-based sub-quantum step the stream drained on
	// (Quantum = the tick's last step; 0 only for a degenerate stream that
	// never stepped). FinishTime is the de-quantized finish instant,
	// FinishTick−1 + FinishSubStep/Quantum, and Turnaround the fractional
	// arrival→finish span used for percentiles — a session draining on
	// sub-step 1 of an 8-token quantum no longer pays for the 7 steps it
	// never ran.
	FinishSubStep int
	FinishTime    float64
	Turnaround    float64
	// DeadlineTick is the absolute SLO deadline (NoDeadline when the request
	// has none); Attained reports FinishTime ≤ DeadlineTick, vacuously true
	// without a deadline. Only completed sessions attain: a failed or shed
	// deadlined request is a miss, and cancelled sessions are excluded from
	// attainment entirely.
	DeadlineTick int
	Attained     bool
	// Preemptions counts how often the session was suspended mid-run;
	// ResumeDelayTicks is the total ticks it spent suspended.
	Preemptions, ResumeDelayTicks int
	// Outcome is the session's terminal state ("ok", "failed", "cancelled",
	// or "shed"); Faults counts injected faults it suffered, Retries the
	// re-placements it was granted, and RecoverTicks the total ticks from
	// each fault to its re-placement.
	Outcome               Outcome
	Faults                int
	Retries, RecoverTicks int
}

// ClassMetrics aggregates one SLO class.
type ClassMetrics struct {
	// Class is the SLO class label ("default" for unlabeled requests).
	Class    string
	Sessions int
	// Deadlined counts sessions with a real deadline (cancelled ones are
	// excluded); Attained counts those that finished by it — failed or shed
	// deadlined requests count as misses. AttainRate is Attained/Deadlined
	// (1 when the class has no deadlines).
	Deadlined, Attained int
	AttainRate          float64
	// Queue/Turnaround percentiles are in simulated ticks.
	QueueP50, QueueP99           float64
	TurnaroundP50, TurnaroundP99 float64
}

// WallClock is the report's host-measured annotation — the only block
// excluded from the determinism contract.
type WallClock struct {
	// Seconds is the total engine runtime on the host; TokS is aggregate
	// decoded tokens per wall second.
	Seconds float64
	TokS    float64
}

// Report aggregates one engine run. Apart from Wall, every field is
// deterministic: bit-identical across runs and worker counts for a fixed
// seed.
type Report struct {
	// Workload, Sched, and Preemptor name the run's request source,
	// admission policy, and preemption policy.
	Workload  string
	Sched     string
	Preemptor string
	Arb       ArbPolicy
	Sessions  []SessionMetrics // in submission order
	Ticks     int
	// Preemptions is the aggregate mid-run suspension count.
	Preemptions int

	// TotalTokens is the token count decoded across all sessions.
	TotalTokens int
	// SimTokS is the simulated aggregate throughput: all sessions' traffic
	// time-shares one memory system, so their simulated transfer times
	// serialize.
	SimTokS float64
	// HitRate is the unit-weighted cache hit rate across sessions.
	// CacheHits/CacheMisses are the raw totals behind it, kept so
	// multi-node rollups (internal/cluster) can recompute an exact
	// cluster-wide rate instead of averaging ratios.
	HitRate                float64
	CacheHits, CacheMisses int64
	// SimLatencyP50/P90/P99 are percentiles, across sessions, of the mean
	// simulated seconds per token.
	SimLatencyP50, SimLatencyP90, SimLatencyP99 float64
	// QueueP50/P90/P99 are percentiles of arrival→admission delay in ticks.
	QueueP50, QueueP90, QueueP99 float64
	// TurnaroundP50/P90/P99 are percentiles of arrival→finish span in ticks
	// at sub-quantum resolution (see SessionMetrics.Turnaround).
	TurnaroundP50, TurnaroundP90, TurnaroundP99 float64
	// SLOAttainRate is attained/deadlined over sessions with real deadlines
	// (1 when none have one). Classes breaks attainment and delay down per
	// SLO class, sorted by class label.
	SLOAttainRate float64
	Classes       []ClassMetrics

	// Robustness block — all zero on reliable hardware. Injector names the
	// fault plan ("none" without one). StepFaults / Revocations /
	// Cancellations count injected events that landed on running sessions;
	// Retries counts granted re-placements, Failed sessions that exhausted
	// their attempt budget, and Shed arrivals rejected by admission control
	// or degraded away. DipSlotTicks is capacity lost to dips (slot·ticks
	// while work existed); MeanRecoverTicks averages fault → re-placement
	// delay over granted retries.
	Injector                               string
	StepFaults, Revocations, Cancellations int
	Retries, Failed, Shed                  int
	DipSlotTicks                           int
	MeanRecoverTicks                       float64
	// GoodTokens counts tokens of completed sessions' surviving work;
	// Goodput is GoodTokens per simulated second. TotalTokens / SimTokS
	// above count *all* decoded tokens — including work discarded by
	// destructive-fault restarts and partial streams of failed or cancelled
	// sessions — so (SimTokS − Goodput) prices the wasted work.
	GoodTokens int
	Goodput    float64

	// Obs is the drain-time moving-window snapshot when a Config.Obs
	// recorder was attached (nil with tracing off). Every field in it runs
	// on the simulated clock, so it is inside the determinism contract —
	// fused and unfused reports carry identical snapshots.
	Obs *obs.Snapshot

	// Wall is the host-measured annotation (see WallClock).
	Wall WallClock
}

// ReconcileObs cross-checks the observer's aggregate event counts against
// the report's own counters and session outcomes, failing on the first
// divergent counter by name. The two are computed by independent code
// paths (per-decision event emissions vs the engine's running totals), so
// a pass means the event stream accounts for every counted decision — the
// guard against silent metrics drift.
func (r *Report) ReconcileObs() error {
	if r.Obs == nil {
		return fmt.Errorf("serving: report carries no observer snapshot (run with Config.Obs set)")
	}
	return Reconcile("serving", ObsChecks(r.Obs.Counts, r))
}

// ObsCheck is one reconciliation row: an event-derived count and the
// independently kept counter it must equal.
type ObsCheck struct {
	Name            string
	Events, Counter int
}

// ObsChecks declares the reconciliation rows every engine run obeys, over
// one report or — for a cluster, whose books only balance in aggregate,
// since a session admits on its source node and finishes on its target —
// the sum of its nodes' reports.
func ObsChecks(c obs.Counts, reports ...*Report) []ObsCheck {
	var sessions, okFinishes, shedSessions int
	var sum Report
	for _, r := range reports {
		sessions += len(r.Sessions)
		for _, sm := range r.Sessions {
			switch sm.Outcome {
			case OutcomeOK:
				okFinishes++
			case OutcomeShed:
				shedSessions++
			}
		}
		sum.StepFaults += r.StepFaults
		sum.Revocations += r.Revocations
		sum.Cancellations += r.Cancellations
		sum.Retries += r.Retries
		sum.Failed += r.Failed
		sum.Preemptions += r.Preemptions
		sum.Shed += r.Shed
	}
	return []ObsCheck{
		{"arrivals vs reported sessions", c.Arrivals, sessions},
		{"admit events vs admitted sessions", c.Admits, sessions - shedSessions},
		{"step-fault events vs Report.StepFaults", c.StepFaults, sum.StepFaults},
		{"revocation events vs Report.Revocations", c.Revocations, sum.Revocations},
		{"cancel-fault events vs Report.Cancellations", c.Cancellations, sum.Cancellations},
		{"cancelled finish events vs Report.Cancellations", c.Cancelled, sum.Cancellations},
		{"retry events vs Report.Retries", c.Retries, sum.Retries},
		{"fault-suspend events vs Report.Retries", c.FaultSuspends, sum.Retries},
		{"failed finish events vs Report.Failed", c.Failed, sum.Failed},
		{"preemption suspend events vs Report.Preemptions", c.Preemptions, sum.Preemptions},
		{"shed+degrade events vs Report.Shed", c.ShedArrivals + c.Degraded, sum.Shed},
		{"shed+degrade events vs shed sessions", c.ShedArrivals + c.Degraded, shedSessions},
		{"ok finish events vs ok sessions", c.FinishedOK, okFinishes},
	}
}

// Reconcile fails on the first divergent row, naming it; pkg prefixes the
// error with the package whose report is being checked.
func Reconcile(pkg string, checks []ObsCheck) error {
	for _, ck := range checks {
		if ck.Events != ck.Counter {
			return fmt.Errorf("%s: observability reconciliation failed on %s: %d event(s) vs %d",
				pkg, ck.Name, ck.Events, ck.Counter)
		}
	}
	return nil
}

// Finalize closes a run at the given tick count and assembles the Report —
// Run's last step when the workload drains, and a stepped driver's — from
// the rows terminate folded, in submission order.
func (e *Engine) Finalize(ticks int) *Report {
	wall := time.Since(e.wallStart) //lint:allow wallclock feeds Report.Wall only; every other report field is tick-clocked
	r := &Report{
		Workload: e.w.Name(), Sched: e.cfg.Sched.Name(), Preemptor: e.cfg.Preempt.Name(), Arb: e.cfg.Arb,
		Ticks: ticks, Preemptions: e.displaced[CausePreempt], Wall: WallClock{Seconds: wall.Seconds()},
		Injector:   "none",
		StepFaults: e.displaced[CauseFault], Revocations: e.displaced[CauseRevoke], Cancellations: e.cancels,
		Retries: e.retries, Failed: e.failed, Shed: e.shedCount,
		DipSlotTicks: e.dipSlotTicks,
	}
	if e.cfg.Faults != nil {
		r.Injector = e.cfg.Faults.Name()
	}
	if e.obs != nil {
		snap := e.obs.Snapshot(ticks)
		r.Obs = &snap
	}
	if e.recoveries > 0 {
		r.MeanRecoverTicks = float64(e.recoverTicks) / float64(e.recoveries)
	}
	done := 0
	for _, s := range e.sessions {
		if s != nil && s.state == Done {
			done++
		}
	}
	// The report holds each finished row once, and one float buffer serves
	// every percentile series in turn: the fold copies nothing else.
	r.Sessions = make([]SessionMetrics, 0, done)
	series := make([]float64, 0, done)
	var simSeconds float64
	var hits, misses int64
	for _, s := range e.sessions {
		if s == nil || s.state != Done {
			continue // never here, migrated away, or — a run cut short — unfinished
		}
		sm := &s.row
		r.Sessions = append(r.Sessions, *sm)
		r.TotalTokens += sm.Decoded
		simSeconds += sm.Point.LatencyS * float64(sm.Decoded)
		hits += s.hits
		misses += s.misses
		if sm.Decoded > 0 {
			// A session that decoded nothing (shed, shorter than one window,
			// or ended before its first step) has no per-token latency.
			series = append(series, sm.Point.LatencyS)
		}
		if sm.Outcome == OutcomeOK {
			r.GoodTokens += sm.Tokens
		}
	}
	if r.Wall.Seconds > 0 {
		r.Wall.TokS = float64(r.TotalTokens) / r.Wall.Seconds
	}
	if simSeconds > 0 {
		r.SimTokS = float64(r.TotalTokens) / simSeconds
		r.Goodput = float64(r.GoodTokens) / simSeconds
	}
	r.CacheHits, r.CacheMisses = hits, misses
	if t := hits + misses; t > 0 {
		r.HitRate = float64(hits) / float64(t)
	}
	r.SimLatencyP50, r.SimLatencyP90, r.SimLatencyP99 = quantiles(series)
	sum := summarize(series, [][]SessionMetrics{r.Sessions})
	r.QueueP50, r.QueueP90, r.QueueP99 = sum.QueueP50, sum.QueueP90, sum.QueueP99
	r.TurnaroundP50, r.TurnaroundP90, r.TurnaroundP99 = sum.TurnaroundP50, sum.TurnaroundP90, sum.TurnaroundP99
	r.SLOAttainRate = sum.AttainRate
	r.Classes = sum.Classes
	return r
}

// fold computes a terminated session's report row and cache traffic from
// its stream, the last read of it before terminate recycles the stream.
func (e *Engine) fold(s *Session) {
	if s.outcome == OutcomeShed {
		// Shed at admission control (or degraded away): never admitted,
		// never decoded. A deadlined shed request is an SLO miss.
		s.row = SessionMetrics{
			ID: s.ID, Index: s.Index, SLO: s.SLO, Outcome: OutcomeShed,
			ArriveTick: s.ArriveTick, FinishTick: s.finishTick,
			FinishTime:   float64(s.finishTick),
			Turnaround:   float64(s.finishTick - s.ArriveTick),
			DeadlineTick: s.Deadline,
		}
		return
	}
	finishTime := float64(s.finishTick)
	if s.finishSub > 0 && s.finishSub < e.cfg.Quantum {
		finishTime = float64(s.finishTick-1) + float64(s.finishSub)/float64(e.cfg.Quantum)
	}
	s.row = SessionMetrics{
		ID: s.ID, Index: s.Index, Point: s.stream.Point(),
		Tokens: s.stream.Pos(), Decoded: s.stream.Decoded(),
		Share: s.Share, SLO: s.SLO, AdmitRank: s.AdmitRank,
		ArriveTick: s.ArriveTick, AdmitTick: s.admitTick, FinishTick: s.finishTick,
		QueueTicks:       s.admitTick - s.ArriveTick,
		TurnaroundTicks:  s.finishTick - s.ArriveTick,
		FinishSubStep:    s.finishSub,
		FinishTime:       finishTime,
		Turnaround:       finishTime - float64(s.ArriveTick),
		DeadlineTick:     s.Deadline,
		Attained:         s.outcome == OutcomeOK && finishTime <= float64(s.Deadline),
		Preemptions:      s.preempts,
		ResumeDelayTicks: s.resumeDelay,
		Outcome:          s.outcome,
		Faults:           s.faultCount,
		Retries:          s.attempts - 1,
		RecoverTicks:     s.recoverTicks,
	}
	s.hits, s.misses = s.stream.Traffic()
}

// Summary is the aggregation of a set of session records that does not
// depend on which engine produced them: delay percentiles, SLO attainment,
// and the per-class breakdown. An engine summarizes its own sessions, a
// cluster the merged set of all its nodes'.
type Summary struct {
	// ClassMetrics holds the whole set's figures (Class is empty).
	ClassMetrics
	QueueP90, TurnaroundP90 float64
	// Classes breaks the set down per SLO class, sorted by class label.
	Classes []ClassMetrics
}

// Summarize aggregates session records, given as one or more slices read
// in place (a cluster passes its nodes' report rows). Queueing delay is over
// admitted sessions (shed requests never queued to admission), turnaround
// over completed ones, and attainment over deadlined sessions that were not
// cancelled — a failed or shed deadlined request is a miss.
func Summarize(sets ...[]SessionMetrics) Summary {
	return summarize(nil, sets)
}

// summarize is Summarize with a caller's float buffer, reused for every
// series: each is gathered, sorted once, and read at p50, p90 and p99.
func summarize(buf []float64, sets [][]SessionMetrics) Summary {
	var s Summary
	var names []string
	for _, sms := range sets {
		for i := range sms {
			if name := className(sms[i].SLO); !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	s.ClassMetrics, s.QueueP90, s.TurnaroundP90, buf = classMetrics("", sets, buf)
	s.Classes = make([]ClassMetrics, len(names))
	for i, name := range names {
		s.Classes[i], _, _, buf = classMetrics(name, sets, buf)
	}
	return s
}

// className resolves an SLO's reporting label.
func className(slo SLO) string {
	if slo.Class == "" {
		return "default"
	}
	return slo.Class
}

// attainRate is attained/deadlined, vacuously 1 with no deadlines.
func attainRate(attained, deadlined int) float64 {
	if deadlined == 0 {
		return 1
	}
	return float64(attained) / float64(deadlined)
}

// classMetrics aggregates the sessions of class name (every session when
// name is empty), also returning the two p90 delays only the whole-set
// summary reports. It gathers the queue series into buf, then the
// turnaround series, and returns buf for the next class.
func classMetrics(name string, sets [][]SessionMetrics, buf []float64) (cm ClassMetrics, queueP90, turnP90 float64, _ []float64) {
	cm.Class = name
	buf = buf[:0]
	for _, sms := range sets {
		for i := range sms {
			sm := &sms[i]
			if !inClass(sm, name) {
				continue
			}
			cm.Sessions++
			if sm.Outcome != OutcomeShed {
				buf = append(buf, float64(sm.QueueTicks))
			}
			if sm.DeadlineTick != NoDeadline && sm.Outcome != OutcomeCancelled {
				cm.Deadlined++
				if sm.Attained {
					cm.Attained++
				}
			}
		}
	}
	cm.AttainRate = attainRate(cm.Attained, cm.Deadlined)
	cm.QueueP50, queueP90, cm.QueueP99 = quantiles(buf)
	buf = buf[:0]
	for _, sms := range sets {
		for i := range sms {
			if sm := &sms[i]; sm.Outcome == OutcomeOK && inClass(sm, name) {
				buf = append(buf, sm.Turnaround)
			}
		}
	}
	cm.TurnaroundP50, turnP90, cm.TurnaroundP99 = quantiles(buf)
	return cm, queueP90, turnP90, buf
}

// inClass reports whether sm belongs to class name ("" is every class).
func inClass(sm *SessionMetrics, name string) bool {
	return name == "" || className(sm.SLO) == name
}

// quantiles sorts vals in place and reads its p50, p90 and p99 by the rule
// Percentile states (all 0 when empty).
func quantiles(vals []float64) (p50, p90, p99 float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	slices.Sort(vals)
	n := len(vals)
	return vals[rank(n, 0.50)], vals[rank(n, 0.90)], vals[rank(n, 0.99)]
}

// Percentile returns the p-quantile (p in [0,1]) of vals, or 0 when empty:
// the value of 1-based rank round(p·n) in ascending order, halves rounded
// up and the rank clamped to [1, n]. That is not nearest-rank (⌈p·n⌉): at
// n = 7, p = 0.9 it is the 6th smallest value, where nearest-rank gives the
// 7th. The input is not modified.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based index Percentile reads from n ≥ 1 sorted values.
func rank(n int, p float64) int {
	return min(max(int(p*float64(n)+0.5)-1, 0), n-1)
}
