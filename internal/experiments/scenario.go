package experiments

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// Scenario is the one description of a serving run: every knob the serve,
// chaos and cluster grids read, each written by exactly one scenarioFlags
// row. The zero value is the default scenario (full sweeps, scale-derived
// rates and deadlines, no faults, no exported logs).
type Scenario struct {
	// Smoke shrinks the grids to a CI-sized smoke run (-small).
	Smoke bool
	// Seed seeds the engines' arrival-shuffle RNG, the Poisson arrival trace
	// and the fault plans (-seed), making admission order, arrival timing
	// and chaos reproducible.
	Seed uint64
	// Workload restricts the serve grid to one workload kind (-workload;
	// "" sweeps the open/closed-loop kinds).
	Workload string
	// Sched restricts the serve grid to one scheduler (-sched; "" sweeps
	// all).
	Sched string
	// Preempt restricts the serve and chaos grids to one preemption policy
	// (-preempt; "" sweeps none and deadline, serve smoke runs default to
	// none).
	Preempt string
	// Arb restricts a grid to one arbitration policy (-arb; "" sweeps the
	// grid's two contended regimes, fair and shared on serve).
	Arb string
	// Router restricts the cluster grid to one routing policy (-router; ""
	// sweeps all).
	Router string
	// Rate overrides the Poisson arrival rate in requests per tick (-rate;
	// 0 = arrival rate ≈ the cell's aggregate service rate).
	Rate float64
	// SLO overrides the interactive class's deadline in ticks (-slo; 0 = a
	// generous scale-derived default).
	SLO int
	// Trace is the trace file (JSON or CSV) replayed by the trace workload
	// (-trace).
	Trace string
	// Faults enables seeded fault injection in the serve and chaos grids
	// (-faults): the overall transient-fault rate of the faults.Mix plan, in
	// (0, 1]. Zero disables injection in serve and keeps the chaos grid's
	// default rate sweep.
	Faults float64
	// Retry overrides the per-request retry budget under fault injection
	// (-retry: total attempts; 0 = the engine default 3, 1 = no recovery).
	Retry int
	// Shed sets the admission-control queue budget under fault injection
	// (-shed; 0 = no shedding). A positive budget also enables graceful
	// degradation of queued best-effort work.
	Shed int
	// Events names the path prefix for the per-cell event logs (-events;
	// each grid cell writes <prefix>-<cell>.<ext>).
	Events string
	// EventsFormat picks the event-log encoding (-events-format; an obs
	// format name, "" = JSONL).
	EventsFormat string
	// ObsWindow sets the moving-window width in simulated ticks for the
	// windowed telemetry snapshot (-obs-window; 0 = the obs package
	// default). A positive width surfaces the snapshot columns even without
	// Events.
	ObsWindow int
	// Nodes restricts the cluster grid to one replica count (-nodes; 0
	// sweeps 1 and 3). Setting it on dipbench also routes -serve to the
	// cluster grid.
	Nodes int
	// DrainTick overrides the tick at which the cluster drain replay drains
	// its last node (-drain-tick; 0 = one service time into the run).
	DrainTick int
	// NodeChaos enables unscripted node chaos in the cluster grid
	// (-node-chaos): the per-node per-tick crash probability, in (0, 1].
	// Positive values add a chaos replay per multi-node cell, run through
	// the heartbeat detector, the zero-lag oracle, and with detection off,
	// pricing detection lag in the chaos_* columns.
	NodeChaos float64
	// DetectMiss overrides the heartbeat detector's confirmation threshold
	// in consecutive missed heartbeats (-detect-miss; 0 = the cluster
	// default 4).
	DetectMiss int
	// RecoverTicks overrides how long a chaos-crashed node stays down before
	// restarting (-recover-ticks; 0 = half a service time).
	RecoverTicks int
}

// grid is a set of serving experiments: the ones whose driver reads a flag.
type grid uint8

const (
	gridServe grid = 1 << iota
	gridChaos
	gridCluster
	gridAll = gridServe | gridChaos | gridCluster
)

// grids maps an experiment id to the grids it runs; -exp all runs all three.
var grids = map[string]grid{"serve": gridServe, "chaos": gridChaos, "cluster": gridCluster, "all": gridAll}

// String spells the set as the invocations that select its grids.
func (g grid) String() string {
	var how []string
	for i, h := range []string{"-serve", "-exp chaos", "-serve -nodes N"} {
		if g&(1<<i) != 0 {
			how = append(how, h)
		}
	}
	return strings.Join(how, " / ")
}

// scenarioFlag is one dipbench serving flag. A flag the selected grid does
// not read is an error, so the recorded command line describes the run.
type scenarioFlag struct {
	name  string
	grids grid                // the grids whose driver reads the field
	field func(*Scenario) any // pointer to the one field the flag writes
	usage string
	// names is the registry an enumerated flag's value must come from.
	names []string
	// prob marks a float that is a probability (at most 1 as well as
	// positive).
	prob bool
}

func namesOf[T any](registry []T, name func(T) string) []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = name(r)
	}
	return out
}

var scenarioFlags = []scenarioFlag{
	{name: "small", grids: gridAll, field: func(s *Scenario) any { return &s.Smoke }, usage: "CI-sized smoke run (runs at -scale test, fewer sessions)"},
	{name: "seed", grids: gridAll, field: func(s *Scenario) any { return &s.Seed }, usage: "seed for the arrival trace, admission tiebreak RNG and fault plans"},
	{name: "workload", grids: gridServe, field: func(s *Scenario) any { return &s.Workload }, usage: "restrict the grid to one workload", names: serving.WorkloadNames()},
	{name: "sched", grids: gridServe, field: func(s *Scenario) any { return &s.Sched }, usage: "restrict the grid to one scheduler", names: namesOf(serving.Schedulers(), serving.Scheduler.Name)},
	{name: "preempt", grids: gridServe | gridChaos, field: func(s *Scenario) any { return &s.Preempt }, usage: "restrict the grid to one preemption policy", names: namesOf(serving.Preemptors(), serving.Preemptor.Name)},
	{name: "arb", grids: gridAll, field: func(s *Scenario) any { return &s.Arb }, usage: "restrict the grid to one arbitration policy", names: namesOf(serving.Policies(), serving.ArbPolicy.String)},
	{name: "router", grids: gridCluster, field: func(s *Scenario) any { return &s.Router }, usage: "restrict the grid to one session router", names: cluster.RouterNames()},
	{name: "rate", grids: gridAll, field: func(s *Scenario) any { return &s.Rate }, usage: "poisson arrival rate in requests/tick (default: arrival ≈ service rate)"},
	{name: "slo", grids: gridAll, field: func(s *Scenario) any { return &s.SLO }, usage: "interactive-class SLO deadline in ticks (default: scale-derived)"},
	{name: "trace", grids: gridServe, field: func(s *Scenario) any { return &s.Trace }, usage: "trace file (JSON or CSV) to replay; implies -workload trace"},
	{name: "faults", grids: gridServe | gridChaos, field: func(s *Scenario) any { return &s.Faults }, usage: "seeded fault-injection rate in (0, 1] (faults.Mix; default: off for -serve, the rate sweep for chaos)", prob: true},
	{name: "retry", grids: gridServe | gridChaos, field: func(s *Scenario) any { return &s.Retry }, usage: "retry budget in total attempts under fault injection (default: engine default 3; 1 = no recovery)"},
	{name: "shed", grids: gridServe | gridChaos, field: func(s *Scenario) any { return &s.Shed }, usage: "admission-control queue budget (default: no shedding; also enables graceful degradation)"},
	{name: "events", grids: gridAll, field: func(s *Scenario) any { return &s.Events }, usage: "enable event tracing and write one event log per grid cell to <PREFIX>-<cell>.<ext>"},
	{name: "events-format", grids: gridAll, field: func(s *Scenario) any { return &s.EventsFormat }, usage: "event-log format (default jsonl; needs -events)", names: obs.FormatNames()},
	{name: "obs-window", grids: gridAll, field: func(s *Scenario) any { return &s.ObsWindow }, usage: "moving-window width in simulated ticks for windowed telemetry (default: obs default; enables tracing)"},
	{name: "nodes", grids: gridCluster, field: func(s *Scenario) any { return &s.Nodes }, usage: "replica node count; setting it routes -serve to the cluster grid (default there: sweep 1 and 3)"},
	{name: "drain-tick", grids: gridCluster, field: func(s *Scenario) any { return &s.DrainTick }, usage: "tick at which the drain replay drains its last node (default: one service time into the run)"},
	{name: "node-chaos", grids: gridCluster, field: func(s *Scenario) any { return &s.NodeChaos }, usage: "unscripted crash rate per node per tick, in (0, 1]; adds a chaos replay per multi-node cell: heartbeat detector vs zero-lag oracle vs detection off", prob: true},
	{name: "detect-miss", grids: gridCluster, field: func(s *Scenario) any { return &s.DetectMiss }, usage: "under -node-chaos, consecutive heartbeat misses before a node is confirmed down (default: cluster default 4)"},
	{name: "recover-ticks", grids: gridCluster, field: func(s *Scenario) any { return &s.RecoverTicks }, usage: "under -node-chaos, ticks a crashed node stays down before restarting (default: half a service time)"},
}

// Bind registers every serving flag on fs, writing straight into s.
func (s *Scenario) Bind(fs *flag.FlagSet) {
	for _, f := range scenarioFlags {
		usage := "with " + f.grids.String() + ": " + f.usage
		if f.names != nil {
			usage += " (" + strings.Join(f.names, "|") + ")"
		}
		switch p := f.field(s).(type) {
		case *bool:
			fs.BoolVar(p, f.name, *p, usage)
		case *uint64:
			fs.Uint64Var(p, f.name, *p, usage)
		case *int:
			fs.IntVar(p, f.name, *p, usage)
		case *float64:
			fs.Float64Var(p, f.name, *p, usage)
		case *string:
			fs.StringVar(p, f.name, *p, usage)
		}
	}
}

// Validate holds every rule on the serving flags: set names the flags given
// on the command line, exp the experiment they are given to ("all" runs
// every grid). Zero means "default" on every field, so a set flag must
// carry a usable value; and a flag that would be silently ignored — wrong
// grid, or shaping a workload or replay that is not selected — is an error,
// not an override: a typo'd invocation must not masquerade as a
// reproducible run. -trace alone resolves Workload to "trace".
func (s *Scenario) Validate(exp string, set map[string]bool) error {
	for _, f := range scenarioFlags {
		if !set[f.name] {
			continue
		}
		if grids[exp] == 0 {
			return fmt.Errorf("-%s only applies to the serving grids; add %s", f.name, f.grids)
		}
		if f.grids&grids[exp] == 0 {
			return fmt.Errorf("-%s is read only with %s; the %s grid would ignore it", f.name, f.grids, exp)
		}
		switch p := f.field(s).(type) {
		case *int:
			if *p <= 0 {
				return fmt.Errorf("-%s must be positive, got %d", f.name, *p)
			}
		case *float64:
			bound := "positive and finite"
			if f.prob {
				bound = "a probability in (0, 1]"
			}
			// !(> 0) rather than <= 0: NaN fails every comparison.
			if !(*p > 0) || math.IsInf(*p, 0) || (f.prob && *p > 1) {
				return fmt.Errorf("-%s must be %s, got %v", f.name, bound, *p)
			}
		case *string:
			if f.names != nil && !slices.Contains(f.names, *p) {
				return fmt.Errorf("-%s: unknown value %q (known: %s)", f.name, *p, strings.Join(f.names, "|"))
			}
			if *p == "" {
				return fmt.Errorf("-%s needs a value", f.name)
			}
		}
	}
	if s.Trace != "" && s.Workload == "" {
		s.Workload = "trace"
	}
	switch {
	case s.Smoke && exp == "all":
		// -small forces the scale, which would rescale every other experiment.
		return errors.New("-small only applies to the serving grids, not -exp all")
	case s.EventsFormat != "" && s.Events == "":
		return errors.New("-events-format shapes the event-log files; add -events PREFIX")
	case s.Trace != "" && s.Workload != "trace":
		return fmt.Errorf("-trace conflicts with -workload %s; use -workload trace", s.Workload)
	case s.Workload == "trace" && s.Trace == "":
		return errors.New("-workload trace needs a trace file (-trace path.json|path.csv)")
	case s.Rate != 0 && s.Workload != "" && s.Workload != "poisson":
		return fmt.Errorf("-rate only shapes the poisson workload, not %q", s.Workload)
	case s.SLO != 0 && s.Workload == "trace":
		return errors.New("-slo does not apply to traces — deadlines come from the file's deadline_ticks column")
	case s.Nodes == 1 && (s.DrainTick != 0 || s.NodeChaos != 0):
		return errors.New("-drain-tick and -node-chaos need at least two nodes (a one-node cluster has nowhere to migrate or fail over to)")
	case (s.DetectMiss != 0 || s.RecoverTicks != 0) && s.NodeChaos == 0:
		return errors.New("-detect-miss and -recover-ticks tune the chaos replay; add -node-chaos P")
	}
	return nil
}

// axis is one grid dimension: the sweep, or the single value name parses to.
func axis[T any](name string, parse func(string) (T, error), sweep ...T) ([]T, error) {
	if name == "" {
		return sweep, nil
	}
	v, err := parse(name)
	return []T{v}, err
}

// quantum is the tokens a session decodes per tick on every grid.
const quantum = 8

// mix is the request mix the three grids share, sized by scale and Smoke: k
// sessions decoding their own slices of the test split against one device.
type mix struct {
	s          Scenario
	m          *model.Model
	toks       []int
	win        int
	sessTokens int
	k          int
	sys        eval.SystemConfig
	// svcTicks bounds one session's pure decode time (the longest stream at
	// quantum tokens per tick); arrival rates, think times, and the default
	// deadline are expressed in these service units so the grids scale with
	// -scale and -small.
	svcTicks int
}

// requestMix sizes the mix: k sessions at test scale, kPaper at paper
// scale, kSmoke under Smoke.
func (l *Lab) requestMix(k, kPaper, kSmoke int) mix {
	x := mix{s: l.Serve, m: l.Model(model.Phi3MedSim), toks: l.TestTokens(0), win: l.EvalWin(), sessTokens: l.evalTokens() / 4, k: k}
	if l.Scale == model.ScalePaper {
		x.k = kPaper
	}
	if x.s.Smoke {
		x.k, x.sessTokens = kSmoke, 2*x.win
	}
	x.sys = eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: x.win}
	x.svcTicks = (x.sessTokens + 2*x.win + quantum - 1) / quantum
	return x
}

// deadline is the interactive class's deadline on a grid with the given
// slot count: SLO, or a generous default — enough for a full wave of
// queueing ahead of you.
func (x mix) deadline(slots int) int {
	if x.s.SLO > 0 {
		return x.s.SLO
	}
	return (max(1, x.k/slots) + 2) * x.svcTicks
}

// requests builds the k sessions. Session i decodes its own slice of the
// test split; lengths vary by up to two windows so slots free at different
// ticks and continuous batching has something to backfill. Even submissions
// are interactive (priority 2, deadlined), odd are batch (best effort).
func (x mix) requests(scheme sparsity.Scheme, deadline int, id func(i int) string) []serving.Request {
	reqs := make([]serving.Request, x.k)
	for i := range reqs {
		n := x.sessTokens + (i%3)*x.win
		start := 0
		if len(x.toks) > n {
			start = (i * 997) % (len(x.toks) - n)
		}
		slo := serving.SLO{Class: "batch"}
		if i%2 == 0 {
			slo = serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: deadline}
		}
		reqs[i] = serving.Request{ID: id(i), Scheme: scheme, Tokens: x.toks[start : start+n], SLO: slo}
	}
	return reqs
}

// poisson releases reqs as the seeded open-loop trace at Rate, or at the
// aggregate service rate of slots: enough load to form queues without
// unbounded backlog.
func (x mix) poisson(reqs []serving.Request, slots int) (serving.Workload, error) {
	rate := x.s.Rate
	if rate <= 0 {
		rate = float64(slots) / float64(x.svcTicks)
	}
	return serving.PoissonArrivals(reqs, rate, x.s.Seed+1)
}
