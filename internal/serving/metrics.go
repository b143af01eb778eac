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
	// QueueTicks is the arrival→admission queueing delay.
	QueueTicks int
	// Turnaround is the arrival→finish span used for percentiles, at
	// sub-quantum resolution: a session that drains on sub-step k of a
	// Q-token quantum finishes at FinishTick−1 + k/Q, so one draining on
	// sub-step 1 of an 8-token quantum does not pay for the 7 steps it never
	// ran. A degenerate stream that never stepped finishes at FinishTick.
	Turnaround float64
	// DeadlineTick is the absolute SLO deadline (NoDeadline when the request
	// has none); Attained reports ArriveTick + Turnaround ≤ DeadlineTick,
	// vacuously true without a deadline. Only completed sessions attain: a
	// failed or shed deadlined request is a miss, and cancelled sessions are
	// excluded from attainment entirely.
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

// WallClock is the report's host-measured annotation — the only block
// excluded from the determinism contract.
type WallClock struct {
	// Seconds is the total engine runtime on the host; TokS is aggregate
	// decoded tokens per wall second.
	Seconds float64
	TokS    float64
}

// Report aggregates one engine run, or — built by Merge — several engines
// that ran side by side. Apart from Wall, every field is deterministic:
// bit-identical across runs and worker counts for a fixed seed.
type Report struct {
	Sessions []SessionMetrics // in submission order; nil on a merged report
	Ticks    int
	// Preemptions is the aggregate mid-run suspension count.
	Preemptions int

	// TotalTokens is the token count decoded across all sessions.
	TotalTokens int
	// SimTokS is the simulated aggregate throughput: all of one engine's
	// sessions time-share its memory system, so their simulated transfer
	// times serialize (engines merged by Merge add their rates instead).
	SimTokS float64
	// HitRate is the unit-weighted cache hit rate across sessions, from the
	// raw CacheHits/CacheMisses totals (which Merge adds, rather than
	// averaging ratios).
	HitRate                float64
	CacheHits, CacheMisses int64
	// SimLatencyP50/P99 are percentiles, across sessions, of the mean
	// simulated seconds per token.
	SimLatencyP50, SimLatencyP99 float64
	// QueueP50/P99 are percentiles of arrival→admission delay in ticks.
	QueueP50, QueueP99 float64
	// TurnaroundP99 is the p99 arrival→finish span in ticks at sub-quantum
	// resolution (see SessionMetrics.Turnaround).
	TurnaroundP99 float64
	// SLOAttainRate is attained/deadlined over sessions with real deadlines
	// (1 when none have one).
	SLOAttainRate float64

	// Robustness block — all zero on reliable hardware. StepFaults /
	// Revocations / Cancellations count injected events that landed on
	// running sessions; Retries counts granted re-placements, Failed
	// sessions that exhausted their attempt budget, and Shed arrivals
	// rejected by admission control or degraded away. DipSlotTicks is
	// capacity lost to dips (slot·ticks while work existed);
	// MeanRecoverTicks averages fault → re-placement delay over the
	// re-placements, from the raw totals recoverTicks/recoveries.
	StepFaults, Revocations, Cancellations int
	Retries, Failed, Shed                  int
	DipSlotTicks                           int
	MeanRecoverTicks                       float64
	recoverTicks, recoveries               int
	// GoodTokens counts tokens of completed sessions' surviving work;
	// Goodput is GoodTokens per simulated second. TotalTokens / SimTokS
	// above count *all* decoded tokens — including work discarded by
	// destructive-fault restarts and partial streams of failed or cancelled
	// sessions — so (SimTokS − Goodput) prices the wasted work.
	GoodTokens int
	Goodput    float64

	// Obs is the drain-time moving-window snapshot when a Config.Obs
	// recorder was attached (nil with tracing off, and on a merged report).
	// Every field in it runs on the simulated clock, so it is inside the
	// determinism contract — fused and unfused reports carry identical
	// snapshots.
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
	return Reconcile("serving", ObsChecks(r.Obs.Counts, r, r.Sessions))
}

// ObsCheck is one reconciliation row: an event-derived count and the
// independently kept counter it must equal.
type ObsCheck struct {
	Name            string
	Events, Counter int
}

// ObsChecks declares the reconciliation rows every engine run obeys: the
// counters come from r, the session tallies from the rows. An engine passes
// its report and its own rows; a cluster, whose books only balance in
// aggregate — a session admits on its source node and finishes on its
// target — passes the Merge of its node reports and every node's rows.
func ObsChecks(c obs.Counts, r *Report, rows ...[]SessionMetrics) []ObsCheck {
	var sessions, okFinishes, shedSessions int
	for _, sms := range rows {
		sessions += len(sms)
		for i := range sms {
			switch sms[i].Outcome {
			case OutcomeOK:
				okFinishes++
			case OutcomeShed:
				shedSessions++
			}
		}
	}
	return []ObsCheck{
		{"arrivals vs reported sessions", c.Arrivals, sessions},
		{"admit events vs admitted sessions", c.Admits, sessions - shedSessions},
		{"step-fault events vs Report.StepFaults", c.StepFaults, r.StepFaults},
		{"revocation events vs Report.Revocations", c.Revocations, r.Revocations},
		{"cancel-fault events vs Report.Cancellations", c.Cancellations, r.Cancellations},
		{"cancelled finish events vs Report.Cancellations", c.Cancelled, r.Cancellations},
		{"retry events vs Report.Retries", c.Retries, r.Retries},
		{"fault-suspend events vs Report.Retries", c.FaultSuspends, r.Retries},
		{"failed finish events vs Report.Failed", c.Failed, r.Failed},
		{"preemption suspend events vs Report.Preemptions", c.Preemptions, r.Preemptions},
		{"shed+degrade events vs Report.Shed", c.ShedArrivals + c.Degraded, r.Shed},
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
		Ticks: ticks, Preemptions: e.displaced[CausePreempt], Wall: WallClock{Seconds: wall.Seconds()},
		StepFaults: e.displaced[CauseFault], Revocations: e.displaced[CauseRevoke], Cancellations: e.cancels,
		Retries: e.retries, Failed: e.failed, Shed: e.shedCount,
		DipSlotTicks: e.dipSlotTicks, recoverTicks: e.recoverTicks, recoveries: e.recoveries,
	}
	if e.obs != nil {
		snap := e.obs.Snapshot(ticks)
		r.Obs = &snap
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
	var simSeconds float64
	for _, s := range e.sessions {
		if s == nil || s.state != Done {
			continue // never here, migrated away, or — a run cut short — unfinished
		}
		sm := &s.row
		r.Sessions = append(r.Sessions, *sm)
		r.TotalTokens += sm.Decoded
		simSeconds += sm.Point.LatencyS * float64(sm.Decoded)
		r.CacheHits += s.hits
		r.CacheMisses += s.misses
		if sm.Outcome == OutcomeOK {
			r.GoodTokens += sm.Tokens
		}
	}
	if simSeconds > 0 {
		r.SimTokS = float64(r.TotalTokens) / simSeconds
		r.Goodput = float64(r.GoodTokens) / simSeconds
	}
	r.derive(make([]float64, 0, done), r.Sessions)
	return r
}

// Merge is the one rule for combining the reports of engines that decoded
// concurrently, each against its own memory system — a cluster's nodes.
// Counters and token totals add. SimTokS and Goodput add the engines'
// rates: their simulated transfer times overlap instead of serializing the
// way one engine's sessions do. HitRate and MeanRecoverTicks come from the
// summed raw totals, not averaged ratios, and the percentiles and SLO
// attainment from one pass over every input's rows, read in place. The
// merged report holds no rows and no observer snapshot; Ticks and
// Wall.Seconds are the longest input's.
func Merge(reps ...*Report) *Report {
	m := &Report{}
	sets := make([][]SessionMetrics, len(reps))
	rows := 0
	for i, r := range reps {
		m.Ticks = max(m.Ticks, r.Ticks)
		m.Preemptions += r.Preemptions
		m.TotalTokens += r.TotalTokens
		m.SimTokS += r.SimTokS
		m.CacheHits += r.CacheHits
		m.CacheMisses += r.CacheMisses
		m.StepFaults += r.StepFaults
		m.Revocations += r.Revocations
		m.Cancellations += r.Cancellations
		m.Retries += r.Retries
		m.Failed += r.Failed
		m.Shed += r.Shed
		m.DipSlotTicks += r.DipSlotTicks
		m.recoverTicks += r.recoverTicks
		m.recoveries += r.recoveries
		m.GoodTokens += r.GoodTokens
		m.Goodput += r.Goodput
		m.Wall.Seconds = max(m.Wall.Seconds, r.Wall.Seconds)
		sets[i] = r.Sessions
		rows += len(r.Sessions)
	}
	m.derive(make([]float64, 0, rows), sets...)
	return m
}

// derive fills in what a report computes from its totals and its rows —
// given as one or more slices read in place — with buf as the one float
// buffer every percentile series is gathered into, sorted once and read in
// turn. Per-token latency is over sessions that decoded (a session shed,
// shorter than one window, or ended before its first step has none),
// queueing delay over admitted ones (a shed request never queued),
// turnaround over completed ones, and attainment over deadlined sessions
// that were not cancelled — a failed or shed deadlined request is a miss.
func (r *Report) derive(buf []float64, sets ...[]SessionMetrics) {
	if t := r.CacheHits + r.CacheMisses; t > 0 {
		r.HitRate = float64(r.CacheHits) / float64(t)
	}
	if r.recoveries > 0 {
		r.MeanRecoverTicks = float64(r.recoverTicks) / float64(r.recoveries)
	}
	if r.Wall.Seconds > 0 {
		r.Wall.TokS = float64(r.TotalTokens) / r.Wall.Seconds
	}
	var deadlined, attained int
	buf = buf[:0]
	for _, sms := range sets {
		for i := range sms {
			if sm := &sms[i]; sm.Decoded > 0 {
				buf = append(buf, sm.Point.LatencyS)
			}
		}
	}
	r.SimLatencyP50, r.SimLatencyP99 = quantiles(buf)
	buf = buf[:0]
	for _, sms := range sets {
		for i := range sms {
			sm := &sms[i]
			if sm.Outcome != OutcomeShed {
				buf = append(buf, float64(sm.QueueTicks))
			}
			if sm.DeadlineTick != NoDeadline && sm.Outcome != OutcomeCancelled {
				deadlined++
				if sm.Attained {
					attained++
				}
			}
		}
	}
	r.QueueP50, r.QueueP99 = quantiles(buf)
	buf = buf[:0]
	for _, sms := range sets {
		for i := range sms {
			if sm := &sms[i]; sm.Outcome == OutcomeOK {
				buf = append(buf, sm.Turnaround)
			}
		}
	}
	_, r.TurnaroundP99 = quantiles(buf)
	r.SLOAttainRate = 1
	if deadlined > 0 {
		r.SLOAttainRate = float64(attained) / float64(deadlined)
	}
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

// className resolves an SLO's reporting label.
func className(slo SLO) string {
	if slo.Class == "" {
		return "default"
	}
	return slo.Class
}

// quantiles sorts vals in place and reads its p50 and p99 by the rule
// Percentile states (both 0 when empty).
func quantiles(vals []float64) (p50, p99 float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	slices.Sort(vals)
	n := len(vals)
	return vals[rank(n, 0.50)], vals[rank(n, 0.99)]
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
