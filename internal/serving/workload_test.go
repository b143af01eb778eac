package serving

import (
	"strings"
	"testing"

	"repro/internal/sparsity"
)

// slotted builds n single-window DIP requests with per-request SLOs.
func slotted(t *testing.T, n int, slo func(i int) SLO) []Request {
	t.Helper()
	reqs := requests(t, n,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 1 })
	for i := range reqs {
		reqs[i].SLO = slo(i)
	}
	return reqs
}

// admitOrder maps admission rank -> submission index.
func admitOrder(rep *Report) []int {
	out := make([]int, len(rep.Sessions))
	for _, sm := range rep.Sessions {
		out[sm.AdmitRank] = sm.Index
	}
	return out
}

// Poisson arrivals must be seeded (same seed ⇒ same trace, different seed ⇒
// different trace), spread over time (nonzero arrival ticks), and induce
// arrival-dependent queueing that the report surfaces in simulated ticks.
func TestPoissonArrivalsAreSeededAndSpread(t *testing.T) {
	trained(t)
	reqs := slotted(t, 6, func(int) SLO { return SLO{} })
	runSeed := func(seed uint64) *Report {
		w := must(PoissonArrivals(reqs, 0.05, seed))(t)
		return run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 2, Quantum: 8, Seed: 1}, w)
	}
	a, b, c := runSeed(3), runSeed(3), runSeed(4)
	lastArrive := 0
	for i := range a.Sessions {
		if a.Sessions[i].ArriveTick != b.Sessions[i].ArriveTick ||
			a.Sessions[i].Point != b.Sessions[i].Point {
			t.Fatalf("same seed, different run:\n%+v\n%+v", a.Sessions[i], b.Sessions[i])
		}
		if a.Sessions[i].ArriveTick > lastArrive {
			lastArrive = a.Sessions[i].ArriveTick
		}
		if sm := a.Sessions[i]; sm.AdmitTick < sm.ArriveTick || sm.QueueTicks != sm.AdmitTick-sm.ArriveTick {
			t.Fatalf("inconsistent simulated timeline: %+v", sm)
		}
	}
	if lastArrive == 0 {
		t.Fatal("poisson arrivals all at tick 0 — not an open-loop trace")
	}
	diff := false
	for i := range a.Sessions {
		diff = diff || a.Sessions[i].ArriveTick != c.Sessions[i].ArriveTick
	}
	if !diff {
		t.Fatal("seeds 3 and 4 produced identical arrival traces")
	}
	if _, err := PoissonArrivals(nil, 0, 1); err == nil {
		t.Fatal("non-positive rate must be rejected")
	}
}

// The acceptance determinism test: Poisson arrivals scheduled EDF against
// the genuinely shared cache must be bit-identical across the variant
// matrix — per-session outputs, queueing delays, SLO verdicts, and cache
// statistics. Run under -race this also covers the parallel step phase.
func TestPoissonEDFDeterministicAcrossWorkerCounts(t *testing.T) {
	trained(t)
	reqs := slotted(t, 6, func(i int) SLO {
		return SLO{Class: []string{"interactive", "batch"}[i%2], Priority: 1 - i%2, DeadlineTicks: 10 + 5*i}
	})
	matrix(t, row{name: "poisson edf shared", guard: sharedCacheFilled,
		w:   func(t *testing.T) Workload { return must(PoissonArrivals(reqs, 0.2, 17))(t) },
		cfg: Config{System: sysCfg(), Arb: ArbShared, Sched: EDF(), MaxActive: 3, Quantum: 4, Seed: 9}})
}

// A closed loop with one user and positive think time is a strict sequence:
// request k+1 arrives exactly thinkTicks after request k retires, and the
// queue never forms.
func TestClosedLoopThinkTime(t *testing.T) {
	trained(t)
	reqs := slotted(t, 3, func(int) SLO { return SLO{} })
	const think = 5
	w := must(ClosedLoop([][]Request{reqs}, think))(t)
	rep := run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 2, Quantum: 8, Seed: 1}, w)
	for i, sm := range rep.Sessions {
		if i > 0 {
			prev := rep.Sessions[i-1]
			if sm.ArriveTick != prev.FinishTick+think {
				t.Fatalf("request %d arrived at %d, want finish(%d)+think(%d)", i, sm.ArriveTick, prev.FinishTick, think)
			}
		}
		if sm.QueueTicks != 0 {
			t.Fatalf("single-user closed loop queued: %+v", sm)
		}
	}
	if _, err := ClosedLoop(nil, 0); err == nil {
		t.Fatal("empty closed loop must be rejected")
	}
	if _, err := ClosedLoop([][]Request{reqs}, -1); err == nil {
		t.Fatal("negative think time must be rejected")
	}
}

// Scheduler policies, exercised with one batch slot so admission order is
// fully observable: priority admits by SLO priority, EDF by absolute
// deadline, and FCFS by the seeded arrival order regardless of either.
func TestSchedulerOrdering(t *testing.T) {
	trained(t)
	runSched := func(sched Scheduler, slo func(i int) SLO) *Report {
		return run(t, Config{
			System: sysCfg(), Arb: ArbFairShare, Sched: sched, MaxActive: 1, Quantum: 16, Seed: 6,
		}, FixedBatch(slotted(t, 4, slo)))
	}
	// Priorities 0..3 ascending by submission index. All four requests are
	// queued before the first admission scan, so the seeded shuffle only
	// breaks ties and priority admits 3,2,1,0.
	prio := runSched(Priority(), func(i int) SLO { return SLO{Priority: i} })
	if got := admitOrder(prio); got[0] != 3 || got[1] != 2 || got[2] != 1 || got[3] != 0 {
		t.Fatalf("priority admission order %v, want [3 2 1 0]", got)
	}
	// Deadlines descending by submission index: EDF admits 3,2,1,0.
	edf := runSched(EDF(), func(i int) SLO { return SLO{DeadlineTicks: 100 - 10*i} })
	if got := admitOrder(edf); got[0] != 3 || got[1] != 2 || got[2] != 1 || got[3] != 0 {
		t.Fatalf("EDF admission order %v, want [3 2 1 0]", got)
	}
	// EDF ranks deadline-less requests after every real deadline.
	mixed := runSched(EDF(), func(i int) SLO {
		if i == 0 {
			return SLO{}
		}
		return SLO{DeadlineTicks: 10 * i}
	})
	if got := admitOrder(mixed); got[len(got)-1] != 0 {
		t.Fatalf("EDF should admit the deadline-less request last, got %v", got)
	}
	// FCFS ignores both and follows the seeded arrival shuffle: identical to
	// a run with no SLOs at all.
	fcfsSLO := runSched(FCFS(), func(i int) SLO { return SLO{Priority: i, DeadlineTicks: 100 - 10*i} })
	fcfsPlain := runSched(FCFS(), func(int) SLO { return SLO{} })
	for i := range fcfsSLO.Sessions {
		if fcfsSLO.Sessions[i].AdmitRank != fcfsPlain.Sessions[i].AdmitRank {
			t.Fatalf("FCFS admission depends on SLO: %+v vs %+v", fcfsSLO.Sessions[i], fcfsPlain.Sessions[i])
		}
	}
}

// SLO attainment: impossible deadlines miss, generous ones hold, and the
// report's rate is attained over deadlined across both classes.
func TestSLOAttainmentPerClass(t *testing.T) {
	trained(t)
	reqs := slotted(t, 4, func(i int) SLO {
		if i%2 == 0 {
			return SLO{Class: "tight", DeadlineTicks: 1}
		}
		return SLO{Class: "loose", DeadlineTicks: 10000}
	})
	rep := run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 1, Quantum: 4, Seed: 2}, FixedBatch(reqs))
	attained := map[string]int{}
	for _, sm := range rep.Sessions {
		if sm.Attained {
			attained[sm.SLO.Class]++
		}
		// The sub-quantum turnaround lies within the session's last tick.
		if whole := float64(sm.FinishTick - sm.ArriveTick); sm.Turnaround > whole || sm.Turnaround <= whole-1 {
			t.Fatalf("turnaround %v outside its whole-tick span %v: %+v", sm.Turnaround, whole, sm)
		}
	}
	if attained["loose"] != 2 {
		t.Fatalf("generous deadlines should all hold: %d of 2 attained", attained["loose"])
	}
	// With one slot and a 1-tick deadline, at most the first admitted tight
	// session could conceivably attain; the queued one cannot.
	if attained["tight"] >= 2 {
		t.Fatalf("impossible deadlines should miss: %d of 2 attained", attained["tight"])
	}
	if want := float64(attained["loose"]+attained["tight"]) / 4; rep.SLOAttainRate != want {
		t.Fatalf("overall attainment %v, want %v", rep.SLOAttainRate, want)
	}
	// Sessions without deadlines are vacuously attained and excluded from
	// the rate.
	prep := run(t, Config{System: sysCfg(), Arb: ArbFairShare, Seed: 2},
		FixedBatch(slotted(t, 2, func(int) SLO { return SLO{} })))
	if prep.SLOAttainRate != 1 {
		t.Fatalf("deadline-less run should be vacuously attained: %v", prep.SLOAttainRate)
	}
}

func TestParseSchedulerAndWorkloadNames(t *testing.T) {
	for _, s := range Schedulers() {
		got, err := ParseScheduler(s.Name())
		if err != nil || got.Name() != s.Name() {
			t.Fatalf("round-trip %v: got %v err %v", s.Name(), got, err)
		}
	}
	if _, err := ParseScheduler("lifo"); err == nil {
		t.Fatal("unknown scheduler name must error")
	}
	names := strings.Join(WorkloadNames(), ",")
	if names != "fixed,poisson,closed,trace" {
		t.Fatalf("workload names %q", names)
	}
}
