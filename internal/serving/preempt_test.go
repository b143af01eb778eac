package serving

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/sparsity"
)

// preemptTrace is the canonical inversion scenario: a long best-effort
// session arrives first and hogs the only slot, then a short deadlined
// interactive request arrives one tick later. Without preemption the
// interactive request waits out the whole background stream and misses;
// with DeadlinePreempt it displaces the background session and attains.
func preemptTrace(t *testing.T) Workload {
	return trace(t,
		TraceEntry{ID: "bg", Tick: 0, Tokens: 128, Start: 0, Class: "batch"},
		TraceEntry{ID: "urgent", Tick: 1, Tokens: 32, Start: 512, Class: "interactive", Priority: 2, DeadlineTicks: 8},
	)
}

// The tentpole acceptance test: on a workload where admission ordering
// alone cannot save a late deadlined arrival, DeadlinePreempt+EDF must
// strictly improve the deadlined class's attainment over NoPreempt at the
// same seed, and the report must carry the preemption accounting.
func TestDeadlinePreemptImprovesAttainment(t *testing.T) {
	trained(t)
	runWith := func(pre Preemptor) *Report {
		return run(t, Config{
			System: sysCfg(), Arb: ArbExclusive, Sched: EDF(), Preempt: pre,
			MaxActive: 1, Quantum: 8, Seed: 11,
		}, preemptTrace(t))
	}
	base := runWith(NoPreempt())
	pre := runWith(DeadlinePreempt())
	if base.Preemptions != 0 {
		t.Fatalf("NoPreempt run reports preemptions: %+v", base)
	}
	if base.SLOAttainRate != 0 {
		t.Fatalf("scenario broken: the deadlined session should miss without preemption (attain %v)", base.SLOAttainRate)
	}
	if pre.SLOAttainRate <= base.SLOAttainRate {
		t.Fatalf("DeadlinePreempt did not improve attainment: %v vs %v", pre.SLOAttainRate, base.SLOAttainRate)
	}
	if pre.Preemptions == 0 {
		t.Fatalf("preempting run reports no preemptions: %+v", pre)
	}
	byID := map[string]SessionMetrics{}
	for _, sm := range pre.Sessions {
		byID[sm.ID] = sm
	}
	bg, urgent := byID["bg"], byID["urgent"]
	if bg.Preemptions == 0 || bg.ResumeDelayTicks <= 0 {
		t.Fatalf("victim accounting missing: %+v", bg)
	}
	if urgent.Preemptions != 0 || !urgent.Attained {
		t.Fatalf("urgent session should run to its deadline unpreempted: %+v", urgent)
	}
	// The victim still decodes its whole stream, after the interruption.
	if bg.Tokens != 128 || bg.FinishTick <= urgent.FinishTick {
		t.Fatalf("victim did not resume and finish after the urgent session: %+v", bg)
	}
}

// Resume fidelity: under ArbExclusive a preempted-then-resumed session
// keeps its private cache across the suspension, so its Point and traffic
// must be bit-identical to an uninterrupted solo run of the same stream —
// DIP-CA is the hard case, its masks read the cache every token.
func TestPreemptedSessionMatchesUninterruptedSolo(t *testing.T) {
	trained(t)
	w := preemptCATrace(t)
	rep := run(t, Config{
		System: sysCfg(), Arb: ArbExclusive, Sched: EDF(), Preempt: DeadlinePreempt(),
		MaxActive: 1, Quantum: 8, Seed: 3,
	}, w)
	if rep.Preemptions == 0 {
		t.Fatalf("scenario broken: no preemption occurred: %+v", rep)
	}
	for _, sm := range rep.Sessions {
		toks := w.Requests()[sm.Index].Tokens
		solo := must(eval.SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), toks, sysCfg()))(t)
		if sm.Point != solo {
			t.Fatalf("session %q (preemptions %d) diverged from uninterrupted solo run:\nserved %+v\nsolo   %+v",
				sm.ID, sm.Preemptions, sm.Point, solo)
		}
		if sm.Tokens != len(toks) {
			t.Fatalf("session %q decoded %d of %d tokens", sm.ID, sm.Tokens, len(toks))
		}
	}
}

// preemptCATrace is preemptTrace with the cache-aware scheme.
func preemptCATrace(t *testing.T) Workload {
	return trace(t,
		TraceEntry{ID: "bg", Tick: 0, Tokens: 128, Start: 0, Scheme: "dipca", Class: "batch"},
		TraceEntry{ID: "urgent", Tick: 1, Tokens: 32, Start: 512, Scheme: "dipca", Class: "interactive", Priority: 2, DeadlineTicks: 8},
	)
}

// mixedPressureTrace staggers five DIP-CA sessions with interleaved
// deadlines and priorities so every preemptor has inversions to act on.
func mixedPressureTrace(t *testing.T) Workload {
	return trace(t,
		TraceEntry{ID: "a", Tick: 0, Tokens: 96, Start: 0, Scheme: "dipca", Class: "batch"},
		TraceEntry{ID: "b", Tick: 0, Tokens: 96, Start: 256, Scheme: "dipca", Class: "batch", Priority: 1},
		TraceEntry{ID: "c", Tick: 2, Tokens: 32, Start: 512, Scheme: "dipca", Class: "interactive", Priority: 3, DeadlineTicks: 9},
		TraceEntry{ID: "d", Tick: 3, Tokens: 64, Start: 768, Scheme: "dipca", Class: "interactive", Priority: 2, DeadlineTicks: 30},
		TraceEntry{ID: "e", Tick: 4, Tokens: 32, Start: 1024, Scheme: "dipca", Class: "interactive", Priority: 3, DeadlineTicks: 12},
	)
}

// pressureRow is mixedPressureTrace on two slots under EDF.
func pressureRow(name string, sched Scheduler, pre Preemptor, arb ArbPolicy) row {
	return row{name: name, w: mixedPressureTrace, cfg: Config{
		System: sysCfg(), Arb: arb, Sched: sched, Preempt: pre, MaxActive: 2, Quantum: 4, Seed: 5,
	}}
}

// The determinism acceptance test: for every preemptor × arbitration
// combination, the report must be bit-identical across the variant matrix
// (run under -race this also proves preemption-driven batch recomposition
// never races the shared-cache commits).
func TestPreemptionDeterministicAcrossWorkerCountsAndFuse(t *testing.T) {
	trained(t)
	for _, pre := range Preemptors() {
		for _, arb := range Policies() {
			r := pressureRow(fmt.Sprintf("pre=%s arb=%v", pre.Name(), arb), EDF(), pre, arb)
			r.guard = func(t *testing.T, o outcome) {
				if preempts := o.rep.Preemptions; (pre.Name() == "none") != (preempts == 0) {
					t.Fatalf("%s: %d preemptions: NoPreempt must never preempt, DeadlinePreempt must", r.name, preempts)
				}
			}
			matrix(t, r)
		}
	}
}

// Schedulers and preemptors compose: the preemption scan picks the
// scheduler-best entry among those able to preempt, so the report stays
// deterministic under every scheduler too.
func TestPreemptionUnderEverySchedulerIsDeterministic(t *testing.T) {
	trained(t)
	for _, sched := range Schedulers() {
		matrix(t, pressureRow("sched="+sched.Name(), sched, DeadlinePreempt(), ArbShared))
	}
}

// Sub-quantum finish offsets: a stream whose length is not a multiple of
// the quantum drains mid-tick, and the report records the fractional
// finish instead of quantizing to the tick boundary — identically across
// the variant matrix, so on the fused and per-session paths alike.
func TestFinishSubStepDeQuantizesTurnaround(t *testing.T) {
	trained(t)
	reqs := requests(t, 1,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 1 }) // 32 tokens
	matrix(t, row{name: "32 tokens at quantum 5", w: func(*testing.T) Workload { return FixedBatch(reqs) },
		cfg: Config{System: sysCfg(), Arb: ArbExclusive, MaxActive: 1, Quantum: 5, Seed: 1},
		guard: func(t *testing.T, o outcome) {
			sm := o.rep.Sessions[0]
			// 32 tokens at quantum 5: six full ticks (30) plus 2 sub-steps,
			// finishing in tick 7 at 6 + 2/5.
			if sm.ArriveTick != 0 || sm.FinishTick != 7 {
				t.Fatalf("finish timeline wrong: %+v", sm)
			}
			if want := 6 + 2.0/5; sm.Turnaround != want {
				t.Fatalf("de-quantized finish wrong: got %v, want %v", sm.Turnaround, want)
			}
			if o.rep.TurnaroundP99 != 6+2.0/5 {
				t.Fatalf("percentiles still quantized: %v", o.rep.TurnaroundP99)
			}
		}})
	// A stream draining exactly on the quantum boundary keeps integral time.
	whole := run(t, Config{System: sysCfg(), Arb: ArbExclusive, MaxActive: 1, Quantum: 8, Seed: 1}, FixedBatch(reqs))
	if sm := whole.Sessions[0]; float64(sm.ArriveTick)+sm.Turnaround != float64(sm.FinishTick) {
		t.Fatalf("boundary finish should stay integral: %+v", sm)
	}
}

// A request shorter than one evaluation window has no tokens to decode: its
// stream is done before it ever steps, so it reports sub-step 0 and an
// integral finish across the variant matrix, fused and per-session — even
// while it shares the batch with a session that does step, so the decode
// loop runs its sub-steps. The matrix's invariants hold that it is reported.
func TestNeverSteppedStreamKeepsSubStepZero(t *testing.T) {
	trained(t)
	reqs := requests(t, 2,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 1 })
	reqs[1].Tokens = reqs[1].Tokens[:10]
	matrix(t, row{
		name: "10-token request beside a 32-token one",
		w:    func(*testing.T) Workload { return FixedBatch(reqs) },
		cfg:  Config{System: sysCfg(), Arb: ArbShared, MaxActive: 2, Quantum: 4, Seed: 1},
		guard: func(t *testing.T, o outcome) {
			sm := o.rep.Sessions[1] // submission order
			if sm.Decoded != 0 || sm.Outcome != OutcomeOK {
				t.Fatalf("short request should finish without decoding: %+v", sm)
			}
			if float64(sm.ArriveTick)+sm.Turnaround != float64(sm.FinishTick) {
				t.Fatalf("never-stepped stream reports turnaround %v from tick %d, finishing at tick %d; want an integral finish",
					sm.Turnaround, sm.ArriveTick, sm.FinishTick)
			}
		}})
}

func TestParsePreemptor(t *testing.T) {
	for _, p := range Preemptors() {
		got, err := ParsePreemptor(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Fatalf("round-trip %v: got %v err %v", p.Name(), got, err)
		}
	}
	if _, err := ParsePreemptor("edf"); err == nil {
		t.Fatal("unknown preemptor name must error")
	}
}
