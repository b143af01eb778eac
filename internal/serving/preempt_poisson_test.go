package serving

import "testing"

// The acceptance scenario on an open-loop workload: Poisson arrivals of
// short deadlined interactive requests interleaved with long best-effort
// batch streams through one slot. Admission-only EDF leaves interactive
// arrivals stuck behind whichever batch stream holds the slot, so some
// deadlines miss; DeadlinePreempt at the same seed strictly improves the
// deadlined class's attainment.
func TestDeadlinePreemptImprovesPoissonAttainment(t *testing.T) {
	trained(t)
	reqs := classMix(t, 6, 8, 3)
	runWith := func(pre Preemptor) *Report {
		return run(t, Config{
			System: sysCfg(), Arb: ArbFairShare, Sched: EDF(), Preempt: pre,
			MaxActive: 1, Quantum: 8, Seed: 2,
		}, must(PoissonArrivals(reqs, 0.1, 21))(t))
	}
	base, pre := runWith(NoPreempt()), runWith(DeadlinePreempt())
	// Only the interactive class carries deadlines, so the run's attainment
	// is that class's.
	attain := func(r *Report) float64 { return r.SLOAttainRate }
	if a := attain(base); a >= 1 {
		t.Fatalf("scenario broken: admission-only EDF should miss deadlines, attained %v", a)
	}
	if ab, ap := attain(base), attain(pre); ap <= ab {
		t.Fatalf("DeadlinePreempt did not strictly improve the deadlined class: %v vs %v", ap, ab)
	}
	if pre.Preemptions == 0 {
		t.Fatalf("no preemptions recorded: %+v", pre)
	}
	// Every stream still decodes to completion, preempted or not.
	for _, sm := range pre.Sessions {
		if sm.Tokens == 0 || sm.FinishTick == 0 {
			t.Fatalf("session lost under preemption: %+v", sm)
		}
	}
}
