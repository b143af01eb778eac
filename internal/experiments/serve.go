package experiments

import (
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/sparsity"
)

// Serve benchmarks the multi-stream serving engine (internal/serving) over
// a grid of workload × scheduler × preemptor × arbitration: K DIP-CA
// sessions in two SLO classes (interactive: high priority with a deadline;
// batch: best effort) arrive through a workload — all at once (fixed), as a
// seeded open-loop Poisson trace, as a closed loop with think time, or
// replayed from a trace file — and are admitted by a pluggable scheduler
// (FCFS, strict priority, or earliest-deadline-first), with an optional
// preemptor suspending running best-effort sessions when deadlined entries
// outrank them, against a shared DRAM cache budget. Every reported metric runs on the simulated tick clock
// (queueing delay, turnaround, per-token latency, SLO attainment, hit rate
// under contention) and is bit-identical for a fixed -seed; host wall
// throughput rides along as the final annotation column.
func Serve(l *Lab) ([]*Table, error) {
	s := l.Serve
	x := l.requestMix(8, 16, 6)
	scheme := sparsity.NewDIPCA(0.5, 0.2)
	// Batch width is a serving-policy knob, not a host property: capping it
	// below the session count exercises queueing and slot backfill, while
	// the wall-clock fan-out inside a tick is still bounded by the worker
	// pool.
	slotCap := 4
	if l.Scale == model.ScalePaper {
		slotCap = 8
	}
	slots := min(x.k, slotCap)
	deadline := x.deadline(slots)

	// The trace file is loaded once; the grid re-binds the parsed entries
	// per cell (each engine consumes its own workload cursor).
	var traceEntries []serving.TraceEntry
	if s.Workload == "trace" {
		if s.Trace == "" {
			return nil, fmt.Errorf("serve: the trace workload needs a trace file (dipbench -trace)")
		}
		f, err := os.Open(s.Trace)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		entries, err := serving.ParseTrace(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		traceEntries = entries
	}

	makeReqs := func() []serving.Request {
		return x.requests(scheme, deadline, func(i int) string { return fmt.Sprintf("s%02d", i) })
	}
	newWorkload := func(kind string) (serving.Workload, error) {
		switch kind {
		case "fixed":
			return serving.FixedBatch(makeReqs()), nil
		case "poisson":
			return x.poisson(makeReqs(), slots)
		case "closed":
			users := max(slots, 2)
			scripts := make([][]serving.Request, users)
			for i, r := range makeReqs() {
				scripts[i%users] = append(scripts[i%users], r)
			}
			return serving.ClosedLoop(scripts, x.svcTicks/2)
		case "trace":
			return serving.TraceWorkload(traceEntries, serving.TraceBinder{
				Corpus: x.toks,
				Scheme: func(name string) (sparsity.Scheme, error) {
					switch name {
					case "", "dipca":
						return scheme, nil
					case "dip":
						return sparsity.NewDIP(0.5), nil
					}
					return nil, fmt.Errorf("serve: trace scheme %q not in the binder table (dip|dipca)", name)
				},
			})
		}
		return nil, fmt.Errorf("serve: unknown workload %q (known: %v)", kind, serving.WorkloadNames())
	}

	workloads := []string{"fixed", "poisson", "closed"}
	schedSweep := []serving.Scheduler{serving.FCFS(), serving.Priority(), serving.EDF()}
	preemptSweep := []serving.Preemptor{serving.NoPreempt(), serving.DeadlinePreempt()}
	if s.Smoke {
		workloads = []string{"fixed", "poisson"}
		schedSweep = []serving.Scheduler{serving.FCFS(), serving.EDF()}
		preemptSweep = preemptSweep[:1]
	}
	if s.Workload != "" {
		workloads = []string{s.Workload}
	}
	scheds, err := axis(s.Sched, serving.ParseScheduler, schedSweep...)
	if err != nil {
		return nil, err
	}
	preempts, err := axis(s.Preempt, serving.ParsePreemptor, preemptSweep...)
	if err != nil {
		return nil, err
	}
	arbs, err := axis(s.Arb, serving.ParseArbPolicy, serving.ArbFairShare, serving.ArbShared)
	if err != nil {
		return nil, err
	}
	cols := []string{"workload", "sched", "preempt", "policy", "sessions", "slots",
		"sim_tok_s", "goodput", "hit_rate", "mean_ppl", "p50_lat_ms", "p99_lat_ms",
		"queue_p50_t", "turn_p99_t", "slo_attain", "preempts", "retries", "shed"}
	if l.obsTracing() {
		// Windowed telemetry from the observability snapshot: decode rate
		// and queue depth over the trailing -obs-window ticks at finish.
		// Inserted before the wall annotation so it stays the trailing
		// column the determinism checks strip.
		cols = append(cols, "win_tok_t", "win_q_depth")
	}
	cols = append(cols, "wall_tok_s")
	out := &Table{
		ID:      "serve",
		Title:   "Workload grid: DIP-CA sessions, SLO classes, and pluggable schedulers under a shared cache budget (LFU, A18-class device)",
		Columns: cols,
	}
	// -faults threads the seeded chaos plan through every grid cell; the
	// cells stay bit-identical for a fixed seed because fault draws are pure
	// functions of (seed, tick, slot).
	var plan faults.Injector
	if s.Faults > 0 {
		p, err := faults.Mix(s.Faults, s.Seed+2)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	for _, kind := range workloads {
		for _, sched := range scheds {
			for _, pre := range preempts {
				for _, arb := range arbs {
					w, err := newWorkload(kind)
					if err != nil {
						return nil, err
					}
					rep, err := l.runEngine(x, serving.Config{
						System: x.sys, Arb: arb, Sched: sched, Preempt: pre,
						MaxActive: slots, Quantum: quantum, Seed: s.Seed,
						Faults: plan, Retry: faults.RetryPolicy{MaxAttempts: s.Retry},
						ShedQueueBudget: s.Shed,
					}, w, fmt.Sprintf("%s-%s-%s-%s", kind, sched.Name(), pre.Name(), arb))
					if err != nil {
						return nil, err
					}
					var ppl float64
					ok := 0
					for _, sm := range rep.Sessions {
						if sm.Outcome == serving.OutcomeOK {
							ppl += sm.Point.PPL
							ok++
						}
					}
					if ok > 0 {
						ppl /= float64(ok)
					}
					row := []any{kind, sched.Name(), pre.Name(), arb.String(), len(rep.Sessions), slots,
						rep.SimTokS, rep.Goodput, rep.HitRate, ppl,
						rep.SimLatencyP50 * 1e3, rep.SimLatencyP99 * 1e3,
						rep.QueueP50, rep.TurnaroundP99, rep.SLOAttainRate, rep.Preemptions,
						rep.Retries, rep.Shed}
					if l.obsTracing() {
						row = append(row, rep.Obs.TokensPerTick, rep.Obs.MeanQueueDepth)
					}
					out.AddRow(append(row, rep.Wall.TokS)...)
				}
			}
		}
	}
	out.Notes = append(out.Notes,
		"every column except wall_tok_s runs on the simulated tick clock and is bit-identical for a fixed -seed, any worker count",
		"queue_p50_t / turn_p99_t are arrival→admission and arrival→finish percentiles in ticks; slo_attain is over deadlined sessions",
	)
	for _, kind := range workloads {
		if kind != "trace" {
			out.Notes = append(out.Notes, fmt.Sprintf(
				"generated interactive sessions carry priority 2 and a %d-tick deadline; batch sessions are best-effort (dipbench -slo overrides)", deadline))
			break
		}
	}
	out.Notes = append(out.Notes,
		"preempt=deadline suspends the loosest-deadline running session when a queued entry's deadline is strictly earlier (stream state kept, resumed later); preempts counts mid-run suspensions",
		"fair partitions the cache budget across slots; shared is one contended cache with slot-order commits",
		"goodput counts only tokens of sessions that completed OK (retried prefixes, failed, cancelled, and shed work excluded); without -faults it equals sim_tok_s",
		"wall_tok_s is the host annotation (sessions fan out over the worker pool); it varies run to run",
	)
	if l.obsTracing() {
		out.Notes = append(out.Notes,
			"win_tok_t / win_q_depth are the trailing -obs-window decode rate and mean queue depth from the observability snapshot; with -events each cell also wrote <prefix>-<cell> event logs, reconciled against the report counters",
		)
	}
	return []*Table{out}, nil
}
