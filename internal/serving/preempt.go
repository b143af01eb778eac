package serving

import "fmt"

// Preemptor decides whether a waiting session's scheduling pressure
// justifies suspending a running one to make room for it. The engine
// consults it every tick, after continuous batching has filled any free
// slots: while some waiting session can name a victim, the victim is
// displaced (see Engine.displace, CausePreempt) — its eval.Stream state is
// retained, its fair-share cache grant is released, and under ArbExclusive
// or ArbShared only the slot frees — and the waiting session takes its
// slot. The victim re-enters the queue as the same record, so schedulers
// rank it exactly as before, and it is resumed later through the ordinary
// backfill path, continuing the same stream where it stopped.
//
// Implementations must be deterministic pure functions of the two sessions'
// scheduling state (deadline, priority, order) — the preemption scan runs
// serially in the engine loop, so any such policy keeps reports
// bit-identical across runs and worker counts. They must also be strict: a
// waiting session may only displace one it strictly outranks, so a freshly
// suspended victim can never preempt its preemptor back and every
// within-tick preemption chain terminates.
type Preemptor interface {
	// Name identifies the policy (CLI-compatible: see ParsePreemptor).
	Name() string
	// Victim returns the index into active of the most preemptable running
	// session under this policy (the loosest deadline, …), or -1 when
	// nothing is ever preemptable. The choice does not depend on who is
	// waiting: the loosest victim is maximal, so a session that cannot
	// displace it cannot displace anyone. The engine computes it once per
	// preemption round.
	Victim(active []*Session) int
	// Outranks reports whether the waiting session's pressure strictly
	// exceeds the running one's — the admission test against Victim's pick.
	Outranks(waiting, running *Session) bool
}

// noPreempt never preempts — the engine's default, and PR 3's behavior.
type noPreempt struct{}

// NoPreempt returns the do-nothing preemptor (the default).
func NoPreempt() Preemptor { return noPreempt{} }

func (noPreempt) Name() string                     { return "none" }
func (noPreempt) Victim([]*Session) int            { return -1 }
func (noPreempt) Outranks(*Session, *Session) bool { return false }

// deadlinePreempt suspends the running session with the latest absolute
// deadline (deadline-less sessions rank loosest of all) whenever the waiting
// session's deadline is strictly earlier — EDF pressure extended from the
// admission queue into the running batch. Strict inequality means
// equal-deadline sessions never displace each other, and a preempted
// session (whose deadline is by construction later than its preemptor's)
// can only ever preempt a third, still-later session.
type deadlinePreempt struct{}

// DeadlinePreempt returns the earliest-deadline-first preemptor.
func DeadlinePreempt() Preemptor { return deadlinePreempt{} }

func (deadlinePreempt) Name() string { return "deadline" }
func (deadlinePreempt) Victim(active []*Session) int {
	v := -1
	for i, s := range active {
		// The loosest victim: latest deadline, then latest Order (the most
		// recent arrival yields first among equals).
		if v < 0 || s.DeadlineTick > active[v].DeadlineTick ||
			(s.DeadlineTick == active[v].DeadlineTick && s.Order > active[v].Order) {
			v = i
		}
	}
	return v
}
func (deadlinePreempt) Outranks(waiting, running *Session) bool {
	return waiting.DeadlineTick < running.DeadlineTick
}

// Preemptors lists every built-in preemptor in declaration order.
func Preemptors() []Preemptor { return []Preemptor{NoPreempt(), DeadlinePreempt()} }

// ParsePreemptor maps a CLI name to its preemptor.
func ParsePreemptor(s string) (Preemptor, error) {
	for _, p := range Preemptors() {
		if p.Name() == s {
			return p, nil
		}
	}
	return nil, fmt.Errorf("serving: unknown preemptor %q (none|deadline)", s)
}
