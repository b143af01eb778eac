package serving

import (
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/parallel"
	"repro/internal/sparsity"
)

// preemptTrace is the canonical inversion scenario: a long best-effort
// session arrives first and hogs the only slot, then a short deadlined
// interactive request arrives one tick later. Without preemption the
// interactive request waits out the whole background stream and misses;
// with DeadlinePreempt it displaces the background session and attains.
func preemptTrace(t *testing.T) Workload {
	t.Helper()
	entries := []TraceEntry{
		{ID: "bg", Tick: 0, Tokens: 128, Start: 0, Class: "batch"},
		{ID: "urgent", Tick: 1, Tokens: 32, Start: 512, Class: "interactive", Priority: 2, DeadlineTicks: 8},
	}
	w, err := TraceWorkload(entries, testBinder(t))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The tentpole acceptance test: on a workload where admission ordering
// alone cannot save a late deadlined arrival, DeadlinePreempt+EDF must
// strictly improve the deadlined class's attainment over NoPreempt at the
// same seed, and the report must carry the preemption accounting.
func TestDeadlinePreemptImprovesAttainment(t *testing.T) {
	trained(t)
	run := func(pre Preemptor) *Report {
		e, err := NewEngine(zoo.m, Config{
			System: sysCfg(), Arb: ArbExclusive, Sched: EDF(), Preempt: pre,
			MaxActive: 1, Quantum: 8, Seed: 11,
		}, preemptTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(NoPreempt())
	pre := run(DeadlinePreempt())
	if base.Preemptions != 0 || base.Preemptor != "none" {
		t.Fatalf("NoPreempt run reports preemptions: %+v", base)
	}
	if base.SLOAttainRate != 0 {
		t.Fatalf("scenario broken: the deadlined session should miss without preemption (attain %v)", base.SLOAttainRate)
	}
	if pre.SLOAttainRate <= base.SLOAttainRate {
		t.Fatalf("DeadlinePreempt did not improve attainment: %v vs %v", pre.SLOAttainRate, base.SLOAttainRate)
	}
	if pre.Preemptions == 0 || pre.Preemptor != "deadline" {
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
	e, err := NewEngine(zoo.m, Config{
		System: sysCfg(), Arb: ArbExclusive, Sched: EDF(), Preempt: DeadlinePreempt(),
		MaxActive: 1, Quantum: 8, Seed: 3,
	}, preemptCATrace(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preemptions == 0 {
		t.Fatalf("scenario broken: no preemption occurred: %+v", rep)
	}
	for _, sm := range rep.Sessions {
		toks := e.reqs[sm.Index].Tokens
		solo, err := eval.SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), toks, sysCfg())
		if err != nil {
			t.Fatal(err)
		}
		if !pointsEqual(sm.Point, solo) {
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
	t.Helper()
	entries := []TraceEntry{
		{ID: "bg", Tick: 0, Tokens: 128, Start: 0, Scheme: "dipca", Class: "batch"},
		{ID: "urgent", Tick: 1, Tokens: 32, Start: 512, Scheme: "dipca", Class: "interactive", Priority: 2, DeadlineTicks: 8},
	}
	w, err := TraceWorkload(entries, testBinder(t))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// mixedPressureTrace staggers five DIP-CA sessions with interleaved
// deadlines and priorities so every preemptor has inversions to act on.
func mixedPressureTrace(t *testing.T) Workload {
	t.Helper()
	entries := []TraceEntry{
		{ID: "a", Tick: 0, Tokens: 96, Start: 0, Scheme: "dipca", Class: "batch"},
		{ID: "b", Tick: 0, Tokens: 96, Start: 256, Scheme: "dipca", Class: "batch", Priority: 1},
		{ID: "c", Tick: 2, Tokens: 32, Start: 512, Scheme: "dipca", Class: "interactive", Priority: 3, DeadlineTicks: 9},
		{ID: "d", Tick: 3, Tokens: 64, Start: 768, Scheme: "dipca", Class: "interactive", Priority: 2, DeadlineTicks: 30},
		{ID: "e", Tick: 4, Tokens: 32, Start: 1024, Scheme: "dipca", Class: "interactive", Priority: 3, DeadlineTicks: 12},
	}
	w, err := TraceWorkload(entries, testBinder(t))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The determinism acceptance test: for every preemptor × arbitration ×
// fuse combination, the report must be bit-identical across worker counts
// (run under -race this also proves preemption-driven batch recomposition
// never races the shared-cache commits).
func TestPreemptionDeterministicAcrossWorkerCountsAndFuse(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	run := func(pre Preemptor, arb ArbPolicy, noFuse bool) *Report {
		e, err := NewEngine(zoo.m, Config{
			System: sysCfg(), Arb: arb, Sched: EDF(), Preempt: pre,
			MaxActive: 2, Quantum: 4, Seed: 5, NoFuse: noFuse,
		}, mixedPressureTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	preempted := false
	for _, pre := range Preemptors() {
		for _, arb := range Policies() {
			parallel.SetProcs(4)
			fused := stripWall(run(pre, arb, false))
			unfused := stripWall(run(pre, arb, true))
			if !reflect.DeepEqual(fused, unfused) {
				t.Fatalf("pre=%s arb=%v: fused and per-session reports diverged:\nfused   %+v\nunfused %+v",
					pre.Name(), arb, fused, unfused)
			}
			parallel.SetProcs(1)
			serial := stripWall(run(pre, arb, false))
			if !reflect.DeepEqual(fused, serial) {
				t.Fatalf("pre=%s arb=%v: report depends on worker count", pre.Name(), arb)
			}
			if pre.Name() == "none" && fused.Preemptions != 0 {
				t.Fatalf("NoPreempt preempted: %+v", fused)
			}
			preempted = preempted || fused.Preemptions > 0
		}
	}
	if !preempted {
		t.Fatal("scenario broken: no combination triggered a preemption")
	}
}

// Schedulers and preemptors compose: the preemption scan picks the
// scheduler-best entry among those able to preempt, so the report stays
// deterministic under every scheduler too.
func TestPreemptionUnderEverySchedulerIsDeterministic(t *testing.T) {
	trained(t)
	run := func(sched Scheduler) *Report {
		e, err := NewEngine(zoo.m, Config{
			System: sysCfg(), Arb: ArbShared, Sched: sched, Preempt: DeadlinePreempt(),
			MaxActive: 2, Quantum: 4, Seed: 5,
		}, mixedPressureTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, sched := range Schedulers() {
		a, b := stripWall(run(sched)), stripWall(run(sched))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sched=%s: preempting run not reproducible", sched.Name())
		}
	}
}

// Sub-quantum finish offsets: a stream whose length is not a multiple of
// the quantum drains mid-tick, and the report records the fractional
// finish instead of quantizing to the tick boundary — identically on the
// fused and per-session paths.
func TestFinishSubStepDeQuantizesTurnaround(t *testing.T) {
	trained(t)
	run := func(noFuse bool) *Report {
		reqs := requests(t, 1,
			func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
			func(int) int { return 1 }) // 32 tokens
		e, err := NewEngine(zoo.m, Config{
			System: sysCfg(), Arb: ArbExclusive, MaxActive: 1, Quantum: 5, Seed: 1, NoFuse: noFuse,
		}, FixedBatch(reqs))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	fused, unfused := run(false), run(true)
	if !reflect.DeepEqual(stripWall(fused), stripWall(unfused)) {
		t.Fatalf("sub-quantum finish differs between paths:\nfused   %+v\nunfused %+v", fused.Sessions, unfused.Sessions)
	}
	sm := fused.Sessions[0]
	// 32 tokens at quantum 5: six full ticks (30) plus 2 sub-steps.
	if sm.FinishTick != 7 || sm.FinishSubStep != 2 {
		t.Fatalf("finish timeline wrong: %+v", sm)
	}
	if want := 6 + 2.0/5; sm.FinishTime != want || sm.Turnaround != want {
		t.Fatalf("de-quantized finish wrong: got %v/%v, want %v", sm.FinishTime, sm.Turnaround, want)
	}
	if sm.TurnaroundTicks != 7 {
		t.Fatalf("whole-tick turnaround changed: %+v", sm)
	}
	if fused.TurnaroundP50 != 6+2.0/5 {
		t.Fatalf("percentiles still quantized: %v", fused.TurnaroundP50)
	}
	// A stream draining exactly on the quantum boundary keeps integral time.
	whole := func() *Report {
		reqs := requests(t, 1,
			func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
			func(int) int { return 1 })
		e, err := NewEngine(zoo.m, Config{
			System: sysCfg(), Arb: ArbExclusive, MaxActive: 1, Quantum: 8, Seed: 1,
		}, FixedBatch(reqs))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	if sm := whole.Sessions[0]; sm.FinishSubStep != 8 || sm.FinishTime != float64(sm.FinishTick) {
		t.Fatalf("boundary finish should stay integral: %+v", sm)
	}
}

// A request shorter than one evaluation window has no tokens to decode: its
// stream is done before it ever steps, so it reports sub-step 0 and an
// integral finish, fused and per-session — even while it shares the batch
// with a session that does step, so the decode loop runs its sub-steps.
func TestNeverSteppedStreamKeepsSubStepZero(t *testing.T) {
	trained(t)
	for _, noFuse := range []bool{false, true} {
		reqs := requests(t, 2,
			func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
			func(int) int { return 1 })
		reqs[1].Tokens = reqs[1].Tokens[:10]
		e, err := NewEngine(zoo.m, Config{
			System: sysCfg(), Arb: ArbShared, MaxActive: 2, Quantum: 4, Seed: 1, NoFuse: noFuse,
		}, FixedBatch(reqs))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, sm := range rep.Sessions {
			if sm.ID != reqs[1].ID {
				continue
			}
			found = true
			if sm.Decoded != 0 || sm.Outcome != OutcomeOK {
				t.Fatalf("noFuse=%v: short request should finish without decoding: %+v", noFuse, sm)
			}
			if sm.FinishSubStep != 0 || sm.FinishTime != float64(sm.FinishTick) {
				t.Fatalf("noFuse=%v: never-stepped stream reports sub-step %d, finish time %v at tick %d; want 0 and an integral finish",
					noFuse, sm.FinishSubStep, sm.FinishTime, sm.FinishTick)
			}
		}
		if !found {
			t.Fatalf("noFuse=%v: short request %q missing from the report", noFuse, reqs[1].ID)
		}
	}
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
