package serving

import "fmt"

// NoDeadline is the DeadlineTick of a request without an SLO deadline; it sorts
// after every real deadline under EDF.
const NoDeadline = int(^uint(0) >> 1)

// Scheduler orders the admission queue. Whenever a batch slot frees, the
// engine places the waiting session — fresh or suspended, ranked alike on
// the Order, ArriveTick, and DeadlineTick it arrived with — that Less ranks
// first. Implementations must be total orders over live sessions — Order is
// unique, so ending every comparison with it guarantees that (and keeps
// admission deterministic).
type Scheduler interface {
	// Name identifies the policy (CLI-compatible: see ParseScheduler).
	Name() string
	// Less reports whether a should be admitted before b.
	Less(a, b *Session) bool
}

// fcfs admits in arrival order with the seeded same-tick shuffle — exactly
// PR 2's seeded admission when every request arrives at tick 0.
type fcfs struct{}

// FCFS returns the first-come-first-served scheduler (the default).
func FCFS() Scheduler { return fcfs{} }

func (fcfs) Name() string            { return "fcfs" }
func (fcfs) Less(a, b *Session) bool { return a.Order < b.Order }

// priority admits the highest SLO priority first, FCFS within a class.
type priority struct{}

// Priority returns the strict-priority scheduler.
func Priority() Scheduler { return priority{} }

func (priority) Name() string { return "prio" }
func (priority) Less(a, b *Session) bool {
	if pa, pb := a.SLO.Priority, b.SLO.Priority; pa != pb {
		return pa > pb
	}
	return a.Order < b.Order
}

// edf admits the earliest absolute deadline first; deadline-less requests
// rank last, FCFS among themselves.
type edf struct{}

// EDF returns the earliest-deadline-first scheduler.
func EDF() Scheduler { return edf{} }

func (edf) Name() string { return "edf" }
func (edf) Less(a, b *Session) bool {
	if a.DeadlineTick != b.DeadlineTick {
		return a.DeadlineTick < b.DeadlineTick
	}
	return a.Order < b.Order
}

// Schedulers lists every built-in scheduler in declaration order.
func Schedulers() []Scheduler { return []Scheduler{FCFS(), Priority(), EDF()} }

// ParseScheduler maps a CLI name to its scheduler.
func ParseScheduler(s string) (Scheduler, error) {
	for _, sched := range Schedulers() {
		if sched.Name() == s {
			return sched, nil
		}
	}
	return nil, fmt.Errorf("serving: unknown scheduler %q (fcfs|prio|edf)", s)
}
