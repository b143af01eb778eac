package serving

import (
	"strings"
	"testing"

	"repro/internal/serving/faults"
	"repro/internal/sparsity"
)

// render names a session's lifecycle position: "suspended/preempt",
// "done/shed".
func render(s *Session) string {
	switch s.state {
	case Suspended:
		return "suspended/" + [...]string{CausePreempt: "preempt", CauseDip: "dip", CauseFault: "fault", CauseRevoke: "revoke"}[s.cause]
	case Done:
		return "done/" + string(s.outcome)
	}
	return s.state.String()
}

// One scripted run walks every legal edge of the session state machine and
// checks every session's state after every tick: rows list only the
// sessions a tick moved, and everything unlisted must not have moved. Two
// slots, fair shares, EDF with deadline preemption, one retry per session,
// and a queue budget of three, so the script can place each edge exactly.
// The ticks derive from the retry backoff and the degrade window, so the
// script follows them if either changes.
func TestLifecycleWalksEveryLegalEdge(t *testing.T) {
	trained(t)
	reqs := requests(t, 7,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 5 })
	reqs[2].SLO = SLO{Class: "interactive", DeadlineTicks: 40}
	retry := faults.RetryPolicy{}
	resume0 := 1 + retry.Backoff(3, 0, 1)
	inject2 := resume0 + 1
	revoke2 := inject2 + 1
	resume2 := revoke2 + retry.Backoff(3, 2, 1)
	fail0 := resume2 + 1
	dip1 := fail0 + 1
	shed5 := dip1 + 1
	degrade6 := shed5 + degradeTicks - 1 // the queue is at budget from shed5 on
	cancel2 := degrade6 + 1
	park3 := cancel2 + 1
	cfg := Config{
		System: sysCfg(), Arb: ArbFairShare, Sched: EDF(), Preempt: DeadlinePreempt(),
		MaxActive: 2, Quantum: 8, Seed: 3,
		Faults: must(faults.Scripted(
			faults.Event{Tick: 1, Kind: faults.Step, Slot: 0},
			faults.Event{Tick: revoke2, Kind: faults.Revoke, Slot: 0},
			faults.Event{Tick: fail0, Kind: faults.Step, Slot: 0},
			faults.Event{Tick: dip1, Kind: faults.Dip, Slots: 1, Ticks: 1},
			faults.Event{Tick: cancel2, Kind: faults.Cancel, Slot: 0},
			faults.Event{Tick: park3, Kind: faults.Dip, Slots: 1, Ticks: 4},
		))(t),
		Retry:           faults.RetryPolicy{MaxAttempts: 2},
		ShedQueueBudget: 3,
	}
	e := must(NewEngine(zoo.m, cfg, FixedBatch(reqs)))(t)
	if err := e.begin(); err != nil {
		t.Fatal(err)
	}
	type step struct {
		inject []int
		moved  map[int]string
		why    string
	}
	steps := map[int]step{
		0:         {inject: []int{0, 1}, moved: map[int]string{0: "active", 1: "active"}, why: "Queued → Active: both arrivals admitted"},
		1:         {moved: map[int]string{0: "suspended/fault"}, why: "Active → Suspended{fault}: step fault on slot 0, backing off"},
		resume0:   {moved: map[int]string{0: "active"}, why: "Suspended → Active: backoff over, 0 resumes"},
		inject2:   {inject: []int{2}, moved: map[int]string{1: "suspended/preempt", 2: "active"}, why: "Active → Suspended{preempt}: deadlined 2 outranks the newest deadline-less session"},
		revoke2:   {moved: map[int]string{2: "suspended/revoke", 1: "active"}, why: "Active → Suspended{revoke}: 2's grant revoked; 1 takes the slot"},
		resume2:   {moved: map[int]string{2: "active", 1: "suspended/preempt"}, why: "a revoked session past its backoff preempts like any other"},
		fail0:     {moved: map[int]string{0: "done/failed", 1: "active"}, why: "Active → Done{failed}: 0's second fault exhausts its two attempts"},
		dip1:      {moved: map[int]string{1: "suspended/dip"}, why: "Active → Suspended{dip}: the top slot goes offline"},
		shed5:     {inject: []int{3, 4, 5}, moved: map[int]string{1: "active", 3: "queued", 4: "queued", 5: "done/shed"}, why: "Queued → Done{shed}: 5 finds the queue (1, 3, 4) at budget"},
		shed5 + 1: {inject: []int{6}, moved: map[int]string{6: "queued"}, why: "6 refills the queue to budget"},
		degrade6:  {moved: map[int]string{6: "done/shed"}, why: "Queued → Done{shed}: four ticks at budget degrade the newest best-effort arrival"},
		cancel2:   {moved: map[int]string{2: "done/cancelled", 3: "active"}, why: "Active → Done{cancelled}"},
		park3:     {moved: map[int]string{3: "suspended/dip"}, why: "a four-tick dip parks 3 for the migration below"},
	}
	want := map[int]string{}
	order := 0
	for tick := 0; tick <= park3; tick++ {
		step := steps[tick]
		for _, idx := range step.inject {
			e.Inject(idx, tick, order)
			order++
		}
		if _, _, err := e.stepTick(tick); err != nil {
			t.Fatal(err)
		}
		for idx, state := range step.moved {
			want[idx] = state
		}
		for idx, s := range e.sessions {
			got := "" // not on this engine: never arrived
			if s != nil {
				got = render(s)
			}
			if got != want[idx] {
				t.Fatalf("tick %d (%s): session %d is %q, want %q", tick, step.why, idx, got, want[idx])
			}
		}
	}

	// Migration moves the record without touching its state: the dip-parked
	// session arrives Suspended{dip}, the waiting one Queued, and the source
	// forgets both.
	dst := must(NewEngine(zoo.m, cfg, FixedBatch(reqs)))(t)
	if err := dst.begin(); err != nil {
		t.Fatal(err)
	}
	migrate := park3 + 1
	migs := e.ExtractQueue(migrate)
	for _, mig := range migs {
		if err := dst.Accept(mig, migrate); err != nil {
			t.Fatal(err)
		}
	}
	if len(migs) != 2 || e.sessions[3] != nil || e.sessions[4] != nil {
		t.Fatalf("source still holds migrated sessions: %d migrants, %v %v", len(migs), e.sessions[3], e.sessions[4])
	}
	if got3, got4 := render(dst.sessions[3]), render(dst.sessions[4]); got3 != "suspended/dip" || got4 != "queued" {
		t.Fatalf("migrants arrived as %q and %q, want suspended/dip and queued", got3, got4)
	}
	// Only waiting sessions migrate: a running or finished record handed to
	// Accept is another engine's bug, and is refused by name.
	for idx, state := range map[int]string{1: "active", 0: "done"} {
		err := dst.Accept(&Migrant{Sess: e.sessions[idx]}, migrate)
		if err == nil || !strings.Contains(err.Error(), "is "+state) {
			t.Errorf("Accept of an %s session: got %v, want a refusal naming the state", state, err)
		}
	}
	if err := dst.Accept(migs[0], migrate); err == nil || !strings.Contains(err.Error(), "duplicates") {
		t.Errorf("Accept of a migrant the engine already holds: got %v", err)
	}
	// An edge outside the diagram is an engine bug and panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("terminating a finished session did not panic")
			}
		}()
		e.terminate(e.sessions[0], migrate, 0, OutcomeOK)
	}()
	// Both migrants run to completion on the target, whose copy of the
	// script keeps one slot offline until park3's dip ends.
	for tick := migrate; busy([]*Engine{dst}); tick++ {
		if tick > migrate+60 {
			t.Fatalf("target never drained: 3 is %s, 4 is %s", render(dst.sessions[3]), render(dst.sessions[4]))
		}
		if _, _, err := dst.stepTick(tick); err != nil {
			t.Fatal(err)
		}
	}
	if got3, got4 := render(dst.sessions[3]), render(dst.sessions[4]); got3 != "done/ok" || got4 != "done/ok" {
		t.Fatalf("migrants ended %q and %q, want done/ok", got3, got4)
	}
}
