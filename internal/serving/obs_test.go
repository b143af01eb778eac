package serving

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
)

// goldenRow is TestEventLogGolden's scenario under one arbitration policy:
// a step fault, a revocation and a cancellation scripted over
// mixedPressureTrace with EDF, deadline preemption and a queue budget.
func goldenRow(t *testing.T, arb ArbPolicy) row {
	return row{name: "golden script arb=" + arb.String(), w: mixedPressureTrace, cfg: Config{
		System: sysCfg(), Arb: arb, Sched: EDF(), Preempt: DeadlinePreempt(),
		MaxActive: 2, Quantum: 4, Seed: 5,
		Faults: must(faults.Scripted(
			faults.Event{Tick: 2, Kind: faults.Step, Slot: 0},
			faults.Event{Tick: 4, Kind: faults.Revoke, Slot: 1},
			faults.Event{Tick: 7, Kind: faults.Cancel, Slot: 0},
		))(t),
		Retry:           faults.RetryPolicy{MaxAttempts: 3},
		ShedQueueBudget: 3,
	}}
}

// The observability acceptance test: the full event log — not just the
// aggregate Report — must be bit-identical across the variant matrix, for
// every arbitration policy, on the golden log's scripted faults. Run under
// -race this also proves emissions never leave the serial engine loop.
func TestEventLogDeterministicAcrossWorkerCountsAndFuse(t *testing.T) {
	trained(t)
	for _, arb := range Policies() {
		r := goldenRow(t, arb)
		r.guard = func(t *testing.T, o outcome) {
			if len(o.log) == 0 {
				t.Fatalf("%s: scenario produced an empty event log", r.name)
			}
		}
		matrix(t, r)
	}
}

// Every aggregate the recorder derives from the event stream must agree
// exactly with the Report counters the engine maintains independently, on
// every execution path; a divergence means an emission site was dropped or
// double-fired. The rows are the recovery trace with and without recovery,
// so both failures and retries fire.
func TestEventCountsReconcileWithReport(t *testing.T) {
	trained(t)
	base, rec := recoveryRow(t, 1, 0), recoveryRow(t, 3, 6)
	base.guard = func(t *testing.T, o outcome) {
		if o.rep.Failed == 0 {
			t.Fatalf("scenario broken: no session failed without recovery: %+v", o.rep)
		}
	}
	rec.guard = func(t *testing.T, o outcome) {
		if o.rep.Retries == 0 {
			t.Fatalf("scenario broken: recovery run granted no retries: %+v", o.rep)
		}
	}
	matrix(t, base, rec)
}

func TestReconcileObsNamesTheFirstDivergentCounter(t *testing.T) {
	trained(t)
	cfg := chaosRow(t, ArbShared).cfg
	cfg.Obs = obs.NewRecorder(obs.Config{})
	rep := run(t, cfg, mixedPressureTrace(t))
	if rep.Obs == nil {
		t.Fatal("report carries no snapshot")
	}
	rep.Obs.Counts.Retries++
	err := rep.ReconcileObs()
	if err == nil {
		t.Fatal("tampered counts reconciled cleanly")
	}
	if !strings.Contains(err.Error(), "retry events vs Report.Retries") {
		t.Fatalf("error does not name the divergent counter: %v", err)
	}

	var bare Report
	if err := bare.ReconcileObs(); err == nil {
		t.Fatal("ReconcileObs on a report without a snapshot must error")
	}
}

// Golden-file test: the JSONL event log is a published artifact (the CI
// smoke and downstream timeline tooling parse it), so byte drift must be
// deliberate. Regenerate with
//
//	UPDATE_EVENTS_GOLDEN=1 go test ./internal/serving -run TestEventLogGolden
func TestEventLogGolden(t *testing.T) {
	trained(t)
	cfg := goldenRow(t, ArbShared).cfg
	rec := obs.NewRecorder(obs.Config{Window: 8})
	cfg.Obs = rec
	run(t, cfg, mixedPressureTrace(t))
	got := jsonl(t, rec.Events())
	golden := filepath.Join("testdata", "events.golden")
	if os.Getenv("UPDATE_EVENTS_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := must(os.ReadFile(golden))(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("event log drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// Attaching a recorder must not perturb the engine: the report minus the
// snapshot itself (and the wall-clock annotation, which is outside the
// determinism contract) must match an unobserved run bit for bit. The
// matrix's recorder-off variant holds that on every harness row; these rows
// add the two shedding paths, whose shed and degrade events stand in for a
// finish.
func TestObserverDoesNotPerturbReport(t *testing.T) {
	trained(t)
	shed, closedShed := shedRow(t), closedShedRow(t)
	shed.guard = func(t *testing.T, o outcome) {
		if o.rep.Shed == 0 {
			t.Fatalf("scenario broken: nothing shed: %+v", o.rep)
		}
	}
	closedShed.guard = shed.guard
	matrix(t, shed, closedShed)
}

// The zero-overhead contract: with no recorder attached, the observability
// hooks on the tick hot path must not allocate at all.
func TestDisabledObserverAddsNoTickAllocations(t *testing.T) {
	trained(t)
	e := admitted(t, ArbShared, 2, 4, false)
	active := e.active
	if e.obs != nil {
		t.Fatal("engine bound a recorder nobody configured")
	}
	allocs := testing.AllocsPerRun(10, func() {
		e.obsTickEnd(0, active, e.obsTickStart(0, active, 0))
		e.emitFinish(0, 0, active[0])
	})
	if allocs != 0 {
		t.Fatalf("disabled observer allocates %.0f objects per tick, want 0", allocs)
	}
}
