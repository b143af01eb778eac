package serving

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Workload is a deterministic source of timestamped requests on the
// engine's simulated tick clock. A workload declares its full request
// universe up front (Requests — the engine needs it to lay out the shared
// memory plan) and then releases submission indices tick by tick through
// Next. Timing may depend on completions (closed-loop think time), which
// the engine reports through the finished argument, so a workload is a
// deterministic function of its construction parameters and the engine's
// (deterministic) retirement ticks.
type Workload interface {
	// Name identifies the workload kind (CLI-compatible: fixed, poisson,
	// closed, trace).
	Name() string
	// Requests returns every request the workload will ever yield. The slice
	// position is the request's submission Index; the engine validates and
	// plans over it once and never mutates it.
	Requests() []Request
	// Next is called once per simulated tick, in tick order, with the
	// sessions retired since the previous call (nil-safe; the slice is
	// reused — do not retain it). It returns the submission indices arriving
	// this tick. When the engine is idle it fast-forwards the clock over
	// ticks NextArrival rules out, so those are skipped.
	Next(tick int, finished []Finished) []int
	// NextArrival returns the earliest tick at which a currently scheduled
	// request arrives (ok = false when none is scheduled — either the
	// workload is done, or future arrivals depend on completions not yet
	// reported). The engine uses it to fast-forward idle gaps in sparse
	// traces instead of spinning tick by tick.
	NextArrival() (tick int, ok bool)
	// Done reports that no current or future arrivals remain.
	Done() bool
}

// Finished notifies a workload that one session retired.
type Finished struct {
	Index int // submission index
	ID    string
	Tick  int // retirement tick
}

// WorkloadNames lists the built-in workload kinds in CLI order.
func WorkloadNames() []string { return []string{"fixed", "poisson", "closed", "trace"} }

// timetable is every open-loop workload: requests arrive in submission
// order at arrival ticks fixed at construction, so the schedule is
// independent of engine state. The three constructors differ only in where
// the ticks come from.
type timetable struct {
	name   string
	reqs   []Request
	ticks  []int // nondecreasing arrival tick per submission index
	cursor int
}

func (w *timetable) Name() string        { return w.name }
func (w *timetable) Requests() []Request { return w.reqs }
func (w *timetable) Done() bool          { return w.cursor == len(w.reqs) }

func (w *timetable) NextArrival() (int, bool) {
	if w.cursor == len(w.ticks) {
		return 0, false
	}
	return w.ticks[w.cursor], true
}

func (w *timetable) Next(tick int, _ []Finished) []int {
	var out []int
	for w.cursor < len(w.ticks) && w.ticks[w.cursor] <= tick {
		out = append(out, w.cursor)
		w.cursor++
	}
	return out
}

// FixedBatch wraps a request slice as an all-arrive-at-tick-0 workload —
// PR 2's fixed-batch serving. Combined with the FCFS scheduler it reproduces
// the old engine bit for bit: same-tick arrivals are shuffled by the
// engine's seeded RNG, which for one batch at tick 0 is exactly the old
// seeded admission permutation.
func FixedBatch(reqs []Request) Workload {
	return &timetable{name: "fixed", reqs: reqs, ticks: make([]int, len(reqs))}
}

// PoissonArrivals builds a seeded open-loop trace over reqs: arrivals are a
// Poisson process with the given mean rate in requests per tick, the
// exponential inter-arrival gaps drawn once from a dedicated seeded RNG.
func PoissonArrivals(reqs []Request, rate float64, seed uint64) (Workload, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serving: poisson workload has no requests")
	}
	if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
		return nil, fmt.Errorf("serving: poisson rate must be a positive requests/tick, got %v", rate)
	}
	rng := tensor.NewRNG(seed)
	ticks := make([]int, len(reqs))
	t := 0.0
	for i := range ticks {
		u := rng.Float64()
		t += -math.Log(1-u) / rate
		ticks[i] = int(t)
	}
	return &timetable{name: "poisson", reqs: reqs, ticks: ticks}, nil
}

// closedLoop models N users replaying per-user scripts: each user issues
// their first request at tick 0, then issues the next one thinkTicks after
// the previous one retires. The request universe is the scripts flattened
// in user order, so arrival *timing* is feedback-driven while the universe
// (and therefore the memory plan) is fixed.
type closedLoop struct {
	reqs    []Request
	user    []int // submission index -> user
	cursor  []int // user -> next submission index to issue, or -1
	last    []int // user -> last submission index of their script
	think   int
	due     map[int][]int // tick -> submission indices, in schedule order
	emitted int
}

// ClosedLoop builds an N-user think-time workload from per-user scripts.
// Empty scripts are allowed (the user never issues anything).
func ClosedLoop(scripts [][]Request, thinkTicks int) (Workload, error) {
	if thinkTicks < 0 {
		return nil, fmt.Errorf("serving: closed-loop think time must be non-negative ticks, got %d", thinkTicks)
	}
	c := &closedLoop{think: thinkTicks, due: make(map[int][]int)}
	for u, script := range scripts {
		if len(script) == 0 {
			continue
		}
		first := len(c.reqs)
		for _, r := range script {
			c.user = append(c.user, u)
			c.reqs = append(c.reqs, r)
		}
		for len(c.cursor) <= u {
			c.cursor = append(c.cursor, -1)
			c.last = append(c.last, -1)
		}
		c.cursor[u] = first + 1
		c.last[u] = len(c.reqs) - 1
		c.due[0] = append(c.due[0], first)
	}
	if len(c.reqs) == 0 {
		return nil, fmt.Errorf("serving: closed-loop workload has no requests")
	}
	return c, nil
}

func (c *closedLoop) Name() string        { return "closed" }
func (c *closedLoop) Requests() []Request { return c.reqs }
func (c *closedLoop) Done() bool          { return c.emitted == len(c.reqs) }

func (c *closedLoop) NextArrival() (int, bool) {
	best, ok := 0, false
	for tick := range c.due {
		if !ok || tick < best {
			best, ok = tick, true
		}
	}
	return best, ok
}

func (c *closedLoop) Next(tick int, finished []Finished) []int {
	// Schedule follow-ups first so a zero think time re-issues this tick.
	for _, f := range finished {
		u := c.user[f.Index]
		if next := c.cursor[u]; next >= 0 && next <= c.last[u] {
			c.cursor[u] = next + 1
			c.due[tick+c.think] = append(c.due[tick+c.think], next)
		}
	}
	out := c.due[tick]
	delete(c.due, tick)
	c.emitted += len(out)
	return out
}
