package serving

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/serving/faults"
	"repro/internal/sparsity"
)

// The acceptance test for transient-fault recovery: under ArbExclusive a
// session's private cache survives a step fault, so the faulted-then-retried
// session must be bit-identical to an uninterrupted solo run — DIP-CA is the
// hard case, its masks read the cache every token.
func TestStepFaultRetryExclusiveMatchesSoloBitForBit(t *testing.T) {
	trained(t)
	reqs := requests(t, 1,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(int) int { return 4 }) // 128 tokens
	rep := run(t, Config{
		System: sysCfg(), Arb: ArbExclusive, MaxActive: 1, Quantum: 8, Seed: 1,
		Faults: must(faults.Scripted(faults.Event{Tick: 2, Kind: faults.Step, Slot: 0}))(t),
	}, FixedBatch(reqs))
	if rep.StepFaults != 1 || rep.Retries != 1 {
		t.Fatalf("fault accounting wrong: %+v", rep)
	}
	if rep.MeanRecoverTicks <= 0 {
		t.Fatalf("no time-to-recover recorded: %+v", rep)
	}
	sm := rep.Sessions[0]
	if sm.Outcome != OutcomeOK || sm.Faults != 1 || sm.Retries != 1 || sm.RecoverTicks <= 0 {
		t.Fatalf("session fault accounting wrong: %+v", sm)
	}
	solo := must(eval.SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), reqs[0].Tokens, sysCfg()))(t)
	if sm.Point != solo {
		t.Fatalf("faulted-and-retried session diverged from uninterrupted solo run:\nserved %+v\nsolo   %+v", sm.Point, solo)
	}
	// A transient fault wastes no decode work: the stream resumed in place.
	if sm.Tokens != 128 || sm.Decoded != 128 || rep.GoodTokens != 128 {
		t.Fatalf("transient fault discarded work: %+v", sm)
	}
	if rep.Goodput != rep.SimTokS {
		t.Fatalf("goodput %v != throughput %v despite zero waste", rep.Goodput, rep.SimTokS)
	}
}

// A revocation is destructive: the grant and the decode state built on it
// are torn down, and the session re-prefills from scratch. With a
// cache-independent scheme (plain DIP) the rerun's quality metrics are still
// bit-identical to a solo run, while the discarded prefix shows up in
// Decoded and as the throughput−goodput gap.
func TestRevocationRestartsFromScratch(t *testing.T) {
	trained(t)
	reqs := requests(t, 1,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 2 }) // 64 tokens
	rep := run(t, Config{
		System: sysCfg(), Arb: ArbExclusive, MaxActive: 1, Quantum: 8, Seed: 1,
		Faults: must(faults.Scripted(faults.Event{Tick: 2, Kind: faults.Revoke, Slot: 0}))(t),
	}, FixedBatch(reqs))
	if rep.Revocations != 1 || rep.Retries != 1 {
		t.Fatalf("revocation accounting wrong: %+v", rep)
	}
	sm := rep.Sessions[0]
	// Two full ticks of quantum 8 ran before the revocation discarded them.
	if sm.Tokens != 64 || sm.Decoded != 64+16 {
		t.Fatalf("restart bookkeeping wrong: Tokens %d Decoded %d, want 64 / 80", sm.Tokens, sm.Decoded)
	}
	solo := must(eval.SystemEvaluate(zoo.m, sparsity.NewDIP(0.5), reqs[0].Tokens, sysCfg()))(t)
	if sm.Point.PPL != solo.PPL || sm.Point.Density != solo.Density {
		t.Fatalf("re-prefilled run's quality diverged from solo:\nserved %+v\nsolo   %+v", sm.Point, solo)
	}
	if rep.GoodTokens != 64 || rep.Goodput >= rep.SimTokS {
		t.Fatalf("wasted work not priced: good %d, goodput %v, throughput %v",
			rep.GoodTokens, rep.Goodput, rep.SimTokS)
	}
}

// Cancellations remove the session outright (no retry, excluded from
// attainment); an exhausted retry budget fails the session (a deadlined
// failure is an SLO miss). Both must keep the engine draining and both are
// excluded from the completed-session turnaround percentiles. A third
// session, queued behind them, completes in time.
func TestCancelAndFailOutcomes(t *testing.T) {
	trained(t)
	reqs := requests(t, 3,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 2 })
	for i := range reqs {
		reqs[i].SLO = SLO{Class: "interactive", DeadlineTicks: 50}
	}
	rep := run(t, Config{
		System: sysCfg(), Arb: ArbFairShare, MaxActive: 2, Quantum: 8, Seed: 3,
		Faults: must(faults.Scripted(
			faults.Event{Tick: 1, Kind: faults.Cancel, Slot: 0},
			faults.Event{Tick: 1, Kind: faults.Step, Slot: 1},
		))(t),
		Retry: faults.RetryPolicy{MaxAttempts: 1},
	}, FixedBatch(reqs))
	if rep.Cancellations != 1 || rep.Failed != 1 || rep.Retries != 0 {
		t.Fatalf("outcome accounting wrong: %+v", rep)
	}
	got := map[Outcome]int{}
	var ok SessionMetrics
	for _, sm := range rep.Sessions {
		got[sm.Outcome]++
		if sm.Outcome == OutcomeOK {
			ok = sm
			if !sm.Attained {
				t.Fatalf("the queued session missed its deadline: %+v", sm)
			}
			continue
		}
		if sm.Attained {
			t.Fatalf("terminated session reported attained: %+v", sm)
		}
		if sm.Tokens >= len(reqs[sm.Index].Tokens) {
			t.Fatalf("terminated session decoded its whole stream: %+v", sm)
		}
	}
	if got[OutcomeCancelled] != 1 || got[OutcomeFailed] != 1 || got[OutcomeOK] != 1 {
		t.Fatalf("outcomes %v, want one cancelled, one failed and one ok", got)
	}
	// Attainment: the failure is a deadlined miss; the cancellation is
	// excluded, not counted as a miss (which would read 1/3).
	if rep.SLOAttainRate != 0.5 {
		t.Fatalf("attain rate %v, want 1/2 (one attained, one deadlined miss, cancelled excluded)", rep.SLOAttainRate)
	}
	if rep.TurnaroundP99 != ok.Turnaround {
		t.Fatalf("turnaround p99 %v is not the one completed session's %v: terminated sessions counted", rep.TurnaroundP99, ok.Turnaround)
	}
}

// A capacity dip parks the tail slots' sessions without consuming retry
// attempts; they resume when capacity returns and still complete.
func TestCapacityDipParksAndResumes(t *testing.T) {
	trained(t)
	reqs := requests(t, 2,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 2 })
	rep := run(t, Config{
		System: sysCfg(), Arb: ArbFairShare, MaxActive: 2, Quantum: 8, Seed: 2,
		Faults: must(faults.Scripted(faults.Event{Tick: 1, Kind: faults.Dip, Slots: 1, Ticks: 2}))(t),
	}, FixedBatch(reqs))
	if rep.DipSlotTicks != 2 {
		t.Fatalf("DipSlotTicks %d, want 2 (one slot for two ticks)", rep.DipSlotTicks)
	}
	if rep.Retries != 0 || rep.Preemptions != 0 || rep.Failed != 0 {
		t.Fatalf("a dip must not consume retries or count as preemption: %+v", rep)
	}
	parked := 0
	for _, sm := range rep.Sessions {
		if sm.Outcome != OutcomeOK || sm.Tokens != 64 {
			t.Fatalf("session did not complete across the dip: %+v", sm)
		}
		if sm.ResumeDelayTicks > 0 {
			parked++
		}
	}
	if parked != 1 {
		t.Fatalf("%d sessions parked, want exactly the displaced tail slot", parked)
	}
}

// chaosRow is the chaos determinism scenario under one arbitration policy:
// the seeded fault mix over mixedPressureTrace with EDF, deadline
// preemption, three retry attempts and a queue budget of three.
func chaosRow(t *testing.T, arb ArbPolicy) row {
	return row{name: "chaos arb=" + arb.String(), w: mixedPressureTrace, cfg: Config{
		System: sysCfg(), Arb: arb, Sched: EDF(), Preempt: DeadlinePreempt(),
		MaxActive: 2, Quantum: 4, Seed: 5,
		Faults: must(faults.Mix(0.08, 99))(t), Retry: faults.RetryPolicy{MaxAttempts: 3},
		ShedQueueBudget: 3,
	}}
}

// The determinism acceptance test for chaos runs: with a fixed fault seed,
// the full report — faults injected, retries, sheds, outcomes, every session
// metric, the observer snapshot — and the event log must be bit-identical
// across the variant matrix, for every arbitration policy. Run under -race
// this also proves fault-driven batch recomposition never races the decode
// phases.
func TestChaosDeterministicAcrossWorkerCountsAndFuse(t *testing.T) {
	trained(t)
	for _, arb := range Policies() {
		r := chaosRow(t, arb)
		r.guard = func(t *testing.T, o outcome) {
			if rep := o.rep; rep.StepFaults+rep.Revocations+rep.Cancellations+rep.DipSlotTicks == 0 {
				t.Fatalf("scenario broken: %s: the seeded plan injected nothing", r.name)
			}
		}
		matrix(t, r)
	}
}

// shedRow is a hog holding the only slot while four more batch requests
// arrive one per tick against a queue budget of two: some are shed at the
// door, and four ticks at budget degrade queued ones.
func shedRow(t *testing.T) row {
	return row{name: "admission shed and degrade", cfg: Config{
		System: sysCfg(), Arb: ArbExclusive, MaxActive: 1, Quantum: 8, Seed: 1, ShedQueueBudget: 2,
	}, w: func(t *testing.T) Workload {
		return trace(t,
			TraceEntry{ID: "hog", Tick: 0, Tokens: 192, Start: 0, Class: "batch"},
			TraceEntry{ID: "q1", Tick: 1, Tokens: 32, Start: 512, Class: "batch"},
			TraceEntry{ID: "q2", Tick: 2, Tokens: 32, Start: 768, Class: "batch"},
			TraceEntry{ID: "q3", Tick: 3, Tokens: 32, Start: 1024, Class: "batch"},
			TraceEntry{ID: "q4", Tick: 4, Tokens: 32, Start: 1280, Class: "batch"},
		)
	}}
}

// Admission-control shedding and graceful degradation: arrivals beyond the
// queue budget are rejected at the door (shed tick = arrival tick), and
// under sustained pressure the degrade pass sheds queued best-effort
// backlog (shed tick > arrival tick) instead of letting it rot.
func TestAdmissionShedAndDegrade(t *testing.T) {
	trained(t)
	r := shedRow(t)
	rep := run(t, r.cfg, r.w(t))
	if rep.Shed == 0 {
		t.Fatalf("nothing shed: %+v", rep)
	}
	atDoor, degraded := 0, 0
	for _, sm := range rep.Sessions {
		if sm.Outcome != OutcomeShed {
			continue
		}
		if sm.Tokens != 0 || sm.Decoded != 0 {
			t.Fatalf("shed session decoded tokens: %+v", sm)
		}
		if sm.FinishTick == sm.ArriveTick {
			atDoor++
		} else {
			degraded++
		}
	}
	if atDoor == 0 || degraded == 0 {
		t.Fatalf("want both shed kinds, got %d at admission and %d degraded (shed %d)", atDoor, degraded, rep.Shed)
	}
	if atDoor+degraded != rep.Shed {
		t.Fatalf("shed rows %d+%d do not match Shed %d", atDoor, degraded, rep.Shed)
	}
}

// closedShedRow is two closed-loop users against one slot and a queue
// budget of one: user 1's first request is shed at the door.
func closedShedRow(t *testing.T) row {
	return row{name: "closed-loop shed", cfg: Config{
		System: sysCfg(), Arb: ArbExclusive, MaxActive: 1, Quantum: 8, Seed: 1, ShedQueueBudget: 1,
	}, w: func(t *testing.T) Workload {
		return must(ClosedLoop([][]Request{
			{{ID: "u0r0", Scheme: sparsity.NewDIP(0.5), Tokens: streamFor(t, 0, 2)}},
			{
				{ID: "u1r0", Scheme: sparsity.NewDIP(0.5), Tokens: streamFor(t, 1, 1)},
				{ID: "u1r1", Scheme: sparsity.NewDIP(0.5), Tokens: streamFor(t, 2, 1)},
			},
		}, 1))(t)
	}}
}

// Shedding must notify the workload like a completion, or a closed-loop
// user whose request was shed would never issue their next one and the
// engine would stall.
func TestShedNotifiesClosedLoopWorkload(t *testing.T) {
	trained(t)
	r := closedShedRow(t)
	rep := run(t, r.cfg, r.w(t))
	if rep.Shed == 0 {
		t.Fatalf("scenario broken: nothing shed: %+v", rep)
	}
	byID := map[string]SessionMetrics{}
	for _, sm := range rep.Sessions {
		byID[sm.ID] = sm
		if sm.Outcome == OutcomeShed && sm.FinishTick != sm.ArriveTick {
			t.Fatalf("scenario broken: %s was degraded, not shed at the door: %+v", sm.ID, sm)
		}
	}
	if len(rep.Sessions) != 3 {
		t.Fatalf("%d sessions reported, want all 3 (shed included): %+v", len(rep.Sessions), rep.Sessions)
	}
	// u1's follow-up must have been issued even though u1r0 was shed.
	if _, ok := byID["u1r1"]; !ok {
		t.Fatalf("closed-loop user stalled after shed: %+v", rep.Sessions)
	}
}

// recoveryRow is a seeded Poisson chaos trace of alternating deadlined
// interactive and best-effort batch requests, under the given retry
// attempts and queue budget.
func recoveryRow(t *testing.T, attempts, shed int) row {
	return row{name: fmt.Sprintf("recovery attempts=%d shed=%d", attempts, shed), cfg: Config{
		System: sysCfg(), Arb: ArbFairShare, Sched: EDF(), Preempt: DeadlinePreempt(),
		MaxActive: 2, Quantum: 8, Seed: 2,
		Faults: must(faults.Mix(0.06, 17))(t), Retry: faults.RetryPolicy{MaxAttempts: attempts}, ShedQueueBudget: shed,
	}, w: func(t *testing.T) Workload { return must(PoissonArrivals(classMix(t, 8, 24, 2), 0.25, 21))(t) }}
}

// classMix is n DIP requests alternating deadlined interactive ones (one
// window, priority 2) with best-effort batch ones of batchWins windows.
func classMix(t *testing.T, n, deadline, batchWins int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: string(rune('a' + i)), Scheme: sparsity.NewDIP(0.5), Tokens: streamFor(t, i, 1),
			SLO: SLO{Class: "interactive", Priority: 2, DeadlineTicks: deadline}}
		if i%2 == 1 {
			reqs[i].Tokens, reqs[i].SLO = streamFor(t, i, batchWins), SLO{Class: "batch"}
		}
	}
	return reqs
}

// The recovery acceptance test: on a seeded Poisson chaos trace, retry +
// shedding must strictly beat the no-recovery baseline's SLO attainment,
// with positive goodput and at least one granted retry.
func TestRetryAndSheddingBeatNoRecoveryBaseline(t *testing.T) {
	trained(t)
	b, r := recoveryRow(t, 1, 0), recoveryRow(t, 3, 6)
	base, rec := run(t, b.cfg, b.w(t)), run(t, r.cfg, r.w(t))
	if base.Failed == 0 {
		t.Fatalf("scenario broken: no session failed without recovery: %+v", base)
	}
	if rec.Retries == 0 {
		t.Fatalf("recovery run granted no retries: %+v", rec)
	}
	if rec.Goodput <= 0 {
		t.Fatalf("recovery run has no goodput: %+v", rec)
	}
	if rec.SLOAttainRate <= base.SLOAttainRate {
		t.Fatalf("retry+shedding did not strictly beat the no-recovery baseline: %v vs %v",
			rec.SLOAttainRate, base.SLOAttainRate)
	}
}

// Satellite: the resume spec beyond ArbExclusive. Under fair-share
// arbitration a suspended session's partition is released, so the resumed
// run re-fills a cold cache at a fresh grant: with a cache-independent scheme
// the quality metrics stay bit-identical to an uninterrupted run, while the
// cache hit rate strictly drops — the documented re-prefill cost
// fault-triggered restarts inherit.
func TestSuspendResumeSpecUnderFair(t *testing.T) {
	trained(t)
	runWith := func(pre Preemptor) *Report {
		return run(t, Config{
			System: sysCfg(), Arb: ArbFairShare, Sched: EDF(), Preempt: pre,
			MaxActive: 1, Quantum: 8, Seed: 3,
		}, preemptTrace(t))
	}
	base := runWith(NoPreempt())
	pre := runWith(DeadlinePreempt())
	if pre.Preemptions == 0 {
		t.Fatal("scenario broken, no preemption")
	}
	again := runWith(DeadlinePreempt())
	if !reflect.DeepEqual(stripWall(pre), stripWall(again)) {
		t.Fatal("suspend/resume run not reproducible")
	}
	sess := func(r *Report, id string) SessionMetrics {
		for _, sm := range r.Sessions {
			if sm.ID == id {
				return sm
			}
		}
		t.Fatalf("no session %q in %+v", id, r.Sessions)
		return SessionMetrics{}
	}
	bgPre, bgBase := sess(pre, "bg"), sess(base, "bg")
	if bgPre.Preemptions == 0 {
		t.Fatalf("bg was not the victim: %+v", bgPre)
	}
	// With one slot the fair share is the full budget, so the uninterrupted
	// baseline is the within-policy reference. Quality is untouched by the
	// cold resume; the hit rate strictly pays for it.
	if bgPre.Point.PPL != bgBase.Point.PPL || bgPre.Point.Density != bgBase.Point.Density {
		t.Fatalf("resume changed decode quality:\npre  %+v\nbase %+v", bgPre.Point, bgBase.Point)
	}
	if bgPre.Point.HitRate >= bgBase.Point.HitRate {
		t.Fatalf("cold resume did not cost hit rate: %v vs %v", bgPre.Point.HitRate, bgBase.Point.HitRate)
	}
	if bgPre.Tokens != 128 || bgPre.Outcome != OutcomeOK {
		t.Fatalf("victim did not complete: %+v", bgPre)
	}
	// The re-granted share is the policy's current one: the full budget at
	// one slot.
	if bgPre.Share != 1 {
		t.Fatalf("resume share %v, want the policy's full single-slot grant", bgPre.Share)
	}
}

// Satellite: Config and workload-constructor validation — zero/negative
// parameters must come back as named errors, not silent defaults (zero
// keeps its documented default where one exists).
func TestConfigValidationNamedErrors(t *testing.T) {
	trained(t)
	good := requests(t, 1,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 1 })
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative MaxActive", func(c *Config) { c.MaxActive = -1 }, "MaxActive"},
		{"negative Quantum", func(c *Config) { c.Quantum = -8 }, "Quantum"},
		{"negative shed budget", func(c *Config) { c.ShedQueueBudget = -2 }, "ShedQueueBudget"},
		{"negative retry attempts", func(c *Config) { c.Retry.MaxAttempts = -1 }, "MaxAttempts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{System: sysCfg()}
			tc.mut(&cfg)
			_, err := NewEngine(zoo.m, cfg, FixedBatch(good))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not name %q", err, tc.want)
			}
		})
	}
	// Zero MaxActive/Quantum keep their documented defaults.
	e := must(NewEngine(zoo.m, Config{System: sysCfg()}, FixedBatch(good)))(t)
	if e.cfg.MaxActive != 4 || e.cfg.Quantum != 8 {
		t.Fatalf("zero-value defaults changed: MaxActive %d Quantum %d", e.cfg.MaxActive, e.cfg.Quantum)
	}
}

// Satellite: workload constructors reject nonsense parameters with named
// errors.
func TestWorkloadConstructorValidation(t *testing.T) {
	trained(t)
	good := requests(t, 1,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 1 })
	t.Run("poisson", func(t *testing.T) {
		for _, rate := range []float64{0, -0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
			if _, err := PoissonArrivals(good, rate, 1); err == nil || !strings.Contains(err.Error(), "rate") {
				t.Fatalf("rate %v: error %v does not name the rate", rate, err)
			}
		}
		if _, err := PoissonArrivals(nil, 0.5, 1); err == nil || !strings.Contains(err.Error(), "request") {
			t.Fatalf("empty universe: %v", err)
		}
		if _, err := PoissonArrivals(good, 0.5, 1); err != nil {
			t.Fatalf("valid poisson rejected: %v", err)
		}
	})
	t.Run("closed", func(t *testing.T) {
		if _, err := ClosedLoop([][]Request{good}, -1); err == nil || !strings.Contains(err.Error(), "think") {
			t.Fatal("negative think time must be a named error")
		}
		if _, err := ClosedLoop(nil, 1); err == nil || !strings.Contains(err.Error(), "request") {
			t.Fatal("empty closed-loop universe must be a named error")
		}
	})
	t.Run("trace", func(t *testing.T) {
		if _, err := TraceWorkload(nil, testBinder(t)); err == nil {
			t.Fatal("empty trace must be rejected")
		}
		if _, err := TraceWorkload([]TraceEntry{{ID: "x", Tokens: 0}}, testBinder(t)); err == nil {
			t.Fatal("zero-token trace entry must be rejected")
		}
	})
}
