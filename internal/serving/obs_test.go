package serving

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// The observability acceptance test: the full event log — not just the
// aggregate Report — must be bit-identical across worker counts and the
// fused/per-session decode paths, for every arbitration policy, under
// chaos. Run under -race this also proves emissions never leave the
// serial engine loop.
func TestEventLogDeterministicAcrossWorkerCountsAndFuse(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	for _, arb := range Policies() {
		var fused []byte
		for i, v := range chaosVariants {
			parallel.SetProcs(v.procs)
			_, log := chaosObsRun(t, arb, v.noFuse)
			if len(log) == 0 {
				t.Fatalf("arb=%v: scenario produced an empty event log on %s", arb, v.name)
			}
			if i == 0 {
				fused = log
			} else if !bytes.Equal(fused, log) {
				t.Fatalf("arb=%v: event log diverged on %s", arb, v.name)
			}
		}
	}
}

// Every aggregate the recorder derives from the event stream must agree
// exactly with the Report counters the engine maintains independently, on
// every execution path; a divergence means an emission site was dropped or
// double-fired.
func TestEventCountsReconcileWithReport(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	for _, arb := range Policies() {
		for _, v := range chaosVariants {
			parallel.SetProcs(v.procs)
			rep, _ := chaosObsRun(t, arb, v.noFuse)
			if err := rep.ReconcileObs(); err != nil {
				t.Errorf("arb=%v on %s: %v", arb, v.name, err)
			}
		}
	}
}

func TestReconcileObsNamesTheFirstDivergentCounter(t *testing.T) {
	trained(t)
	rep, _ := chaosObsRun(t, ArbShared, false)
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
	script, err := faults.Scripted(
		faults.Event{Tick: 2, Kind: faults.Step, Slot: 0},
		faults.Event{Tick: 4, Kind: faults.Revoke, Slot: 1},
		faults.Event{Tick: 7, Kind: faults.Cancel, Slot: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{Window: 8})
	e, err := NewEngine(zoo.m, Config{
		System: sysCfg(), Arb: ArbShared, Sched: EDF(), Preempt: DeadlinePreempt(),
		MaxActive: 2, Quantum: 4, Seed: 5,
		Faults: script, Retry: faults.RetryPolicy{MaxAttempts: 3},
		ShedQueueBudget: 3,
		Obs:             rec,
	}, mixedPressureTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "events.golden")
	if os.Getenv("UPDATE_EVENTS_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("event log drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// Attaching a recorder must not perturb the engine: under every arbitration
// policy the report minus the snapshot itself (and the wall-clock
// annotation, which is outside the determinism contract) must match an
// unobserved run bit for bit. With the chaos determinism test this carries
// its worker-count and decode-path guarantees over to unobserved runs.
func TestObserverDoesNotPerturbReport(t *testing.T) {
	trained(t)
	run := func(arb ArbPolicy, rec *obs.Recorder) *Report {
		plan, err := faults.Mix(0.08, 99)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(zoo.m, Config{
			System: sysCfg(), Arb: arb, Sched: EDF(), Preempt: DeadlinePreempt(),
			MaxActive: 2, Quantum: 4, Seed: 5,
			Faults: plan, Retry: faults.RetryPolicy{MaxAttempts: 3},
			ShedQueueBudget: 3,
			Obs:             rec,
		}, mixedPressureTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		rep.Obs = nil
		return stripWall(rep)
	}
	for _, arb := range Policies() {
		observed := run(arb, obs.NewRecorder(obs.Config{}))
		plain := run(arb, nil)
		if !reflect.DeepEqual(observed, plain) {
			t.Fatalf("arb=%v: observer perturbed the report:\nobserved %+v\nplain    %+v", arb, observed, plain)
		}
	}
}

// The zero-overhead contract: with no recorder attached, the observability
// hooks on the tick hot path must not allocate at all.
func TestDisabledObserverAddsNoTickAllocations(t *testing.T) {
	trained(t)
	const k = 2
	reqs := requests(t, k,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(int) int { return 6 })
	e, err := NewEngine(zoo.m, Config{
		System: sysCfg(), Arb: ArbShared, MaxActive: k, Quantum: 4, Seed: 1,
	}, FixedBatch(reqs))
	if err != nil {
		t.Fatal(err)
	}
	active := make([]*Session, 0, k)
	for i := range reqs {
		sess := &Session{ID: e.reqs[i].ID, Index: i, ArriveTick: 0, Order: i, Deadline: NoDeadline}
		if err := e.admit(sess, 0, i); err != nil {
			t.Fatal(err)
		}
		active = append(active, sess)
	}
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
