// Serving quickstart: train a small model, then drive the multi-stream
// serving engine with an online workload — eight users arriving as a
// seeded Poisson process in two SLO classes (interactive: high priority
// with a deadline; batch: best effort) — under two admission schedulers
// (FCFS and earliest-deadline-first) against one genuinely shared cache.
// Every printed metric runs on the simulated tick clock, so the output is
// bit-identical run to run; only the wall-clock annotation varies.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

func main() {
	// 1. Data and a small trained model (~20 s), as in examples/quickstart.
	tok := data.NewTokenizer()
	splits := data.NewSplits(42, 60000, 10000)
	cfg := model.Config{
		Name: model.Mistral7BSim, Vocab: tok.VocabSize(),
		Dim: 48, Layers: 3, Heads: 4, KVHeads: 2, DFF: 144,
		MaxSeq: 96, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 7)
	opts := model.DefaultTrainOpts()
	opts.Steps = 200
	opts.Log = os.Stderr
	fmt.Println("training the base model...")
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		log.Fatal(err)
	}

	// 2. Eight users, each decoding their own stream under DIP-CA at 50%
	//    density. Even users are "interactive" (priority 2, 160-tick
	//    deadline), odd users are best-effort "batch". Lengths differ, so
	//    batch slots free up mid-run and the scheduler backfills them.
	test := tok.Encode(splits.Test)
	reqs := make([]serving.Request, 8)
	for i := range reqs {
		n := 192 + (i%3)*64
		slo := serving.SLO{Class: "batch"}
		if i%2 == 0 {
			slo = serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 160}
		}
		reqs[i] = serving.Request{
			ID:     fmt.Sprintf("user-%d", i),
			Scheme: sparsity.NewDIPCA(0.5, 0.2),
			Tokens: test[i*256 : i*256+n],
			SLO:    slo,
		}
	}

	// 3. Arrivals are an open-loop Poisson trace: ~one request every four
	//    ticks, drawn once from a seeded RNG, so the trace (and everything
	//    downstream) is reproducible. Two batch slots against eight users
	//    means queues form — which is where FCFS and EDF part ways: EDF
	//    pulls deadlined interactive sessions ahead of best-effort batch
	//    work.
	sys := eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: 64}
	for _, sched := range []serving.Scheduler{serving.FCFS(), serving.EDF()} {
		workload, err := serving.PoissonArrivals(reqs, 0.25, 1234)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := serving.NewEngine(m, serving.Config{
			System:    sys,
			Arb:       serving.ArbShared, // one genuinely shared cache
			Sched:     sched,
			MaxActive: 2,  // batch width: two sessions decode concurrently
			Quantum:   8,  // tokens each session advances per tick
			Seed:      42, // same-tick arrival tiebreaks (reproducible)
		}, workload)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := engine.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== %s workload, %s scheduler, %s arbitration ==\n", rep.Workload, rep.Sched, rep.Arb)
		fmt.Printf("aggregate: %.3f tok/s simulated, hit rate %.3f, %d ticks, SLO attainment %.2f\n",
			rep.SimTokS, rep.HitRate, rep.Ticks, rep.SLOAttainRate)
		fmt.Printf("latency  : p50 %.2f s/tok, p99 %.2f s/tok (simulated); queue p99 %.0f ticks\n",
			rep.SimLatencyP50, rep.SimLatencyP99, rep.QueueP99)
		for _, cm := range rep.Classes {
			fmt.Printf("  class %-11s  %d sessions  attain %.2f  queue p50 %3.0f t  turnaround p99 %3.0f t\n",
				cm.Class, cm.Sessions, cm.AttainRate, cm.QueueP50, cm.TurnaroundP99)
		}
		for _, sm := range rep.Sessions {
			verdict := "ok"
			if !sm.Attained {
				verdict = "MISS"
			}
			fmt.Printf("  %-7s %-11s arrive %3d  admit %3d  finish %3d  queue %2d t  ppl %6.3f  hit %.3f  %s\n",
				sm.ID, sm.SLO.Class, sm.ArriveTick, sm.AdmitTick, sm.FinishTick,
				sm.QueueTicks, sm.Point.PPL, sm.Point.HitRate, verdict)
		}
		fmt.Printf("(wall annotation: %.0f tok/s on the host — the only non-deterministic line)\n", rep.Wall.TokS)
	}

	// 4. Preemption: a scheduler can only reorder the *queue* — once every
	//    slot is busy, a late interactive arrival still waits for a running
	//    batch session to drain. The deadline preemptor suspends the
	//    loosest-deadline running session instead (its stream state is
	//    retained), lets the urgent one decode, and resumes the victim
	//    where it stopped. Same seed, same arrivals — only the preemption
	//    policy differs.
	fmt.Println("\n== EDF admission alone vs EDF + deadline preemption ==")
	// Same streams, but the interactive deadline is tightened to the point
	// where admission ordering alone cannot save a late arrival.
	tight := append([]serving.Request(nil), reqs...)
	for i := range tight {
		if tight[i].SLO.DeadlineTicks > 0 {
			tight[i].SLO.DeadlineTicks = 48
		}
	}
	for _, pre := range []serving.Preemptor{serving.NoPreempt(), serving.DeadlinePreempt()} {
		workload, err := serving.PoissonArrivals(tight, 0.25, 1234)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := serving.NewEngine(m, serving.Config{
			System: sys, Arb: serving.ArbShared, Sched: serving.EDF(), Preempt: pre,
			MaxActive: 2, Quantum: 8, Seed: 42,
		}, workload)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := engine.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  preempt=%-8s  SLO attainment %.2f  preemptions %d  queue p99 %3.0f t\n",
			rep.Preemptor, rep.SLOAttainRate, rep.Preemptions, rep.QueueP99)
		for _, sm := range rep.Sessions {
			if sm.Preemptions > 0 {
				fmt.Printf("    %-7s %-11s suspended %d time(s), %d tick(s) on the bench, still finished at %.1f\n",
					sm.ID, sm.SLO.Class, sm.Preemptions, sm.ResumeDelayTicks, sm.FinishTime)
			}
		}
	}

	// 5. Fault injection and recovery: a seeded chaos plan (transient step
	//    faults, cache-grant revocations, request cancellations, capacity
	//    dips) drives failures from the same simulated tick clock — every
	//    fault decision is a pure function of (seed, tick, slot), so a chaos
	//    run is exactly as reproducible as a clean one. Retry/backoff plus
	//    admission-control shedding recover what can be recovered; the
	//    report splits goodput (tokens of sessions that finished OK) from
	//    raw throughput, which still counts work that was later thrown away.
	fmt.Println("\n== seeded chaos: no recovery vs retry + load shedding ==")
	plan, err := faults.Mix(0.05, 2024)
	if err != nil {
		log.Fatal(err)
	}
	for _, recovery := range []bool{false, true} {
		workload, err := serving.PoissonArrivals(tight, 0.25, 1234)
		if err != nil {
			log.Fatal(err)
		}
		cfg := serving.Config{
			System: sys, Arb: serving.ArbFairShare, Sched: serving.EDF(),
			Preempt: serving.DeadlinePreempt(), MaxActive: 2, Quantum: 8, Seed: 42,
			Faults: plan, Retry: faults.RetryPolicy{MaxAttempts: 1},
		}
		label := "none"
		if recovery {
			// Up to 3 attempts with seeded exponential backoff; arrivals
			// beyond 4 queued requests are shed at the door, and sustained
			// pressure sheds queued best-effort work (graceful degradation).
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
			cfg.ShedQueueBudget = 4
			cfg.Degrade = true
			label = "retry+shed"
		}
		engine, err := serving.NewEngine(m, cfg, workload)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := engine.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  recovery=%-10s faults %d (step %d, revoke %d, cancel %d)  retries %d  failed %d  shed %d\n",
			label, rep.StepFaults+rep.Revocations+rep.Cancellations,
			rep.StepFaults, rep.Revocations, rep.Cancellations, rep.Retries, rep.Failed, rep.Shed)
		fmt.Printf("    goodput %.3f of %.3f sim tok/s  SLO attainment %.2f  mean recovery %.1f ticks\n",
			rep.Goodput, rep.SimTokS, rep.SLOAttainRate, rep.MeanRecoverTicks)
		for _, sm := range rep.Sessions {
			if sm.Outcome != serving.OutcomeOK {
				fmt.Printf("    %-7s %-11s outcome %-9s after %d fault(s)\n", sm.ID, sm.SLO.Class, sm.Outcome, sm.Faults)
			}
		}
	}

	// 6. Observability: attach a recorder and the engine narrates every
	//    scheduling decision — arrivals, admissions, preemptions, faults,
	//    retries, finishes — as structured events on the same simulated tick
	//    clock, so the event log is exactly as reproducible as the report.
	//    The recorder also keeps tick-windowed telemetry (Snapshot) and the
	//    log exports as JSONL or a Chrome trace you can open in Perfetto.
	fmt.Println("\n== observability: structured events, windowed telemetry, Chrome trace ==")
	rec := obs.NewRecorder(obs.Config{Window: 32})
	workload, err := serving.PoissonArrivals(tight, 0.25, 1234)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := serving.NewEngine(m, serving.Config{
		System: sys, Arb: serving.ArbShared, Sched: serving.EDF(),
		Preempt: serving.DeadlinePreempt(), MaxActive: 2, Quantum: 8, Seed: 42,
		Faults: plan, Retry: faults.RetryPolicy{MaxAttempts: 3},
		ShedQueueBudget: 4, Degrade: true,
		Obs: rec,
	}, workload)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := engine.Run()
	if err != nil {
		log.Fatal(err)
	}
	// Every aggregate the recorder derives must reconcile exactly with the
	// report's own counters — the library enforces the same invariant in CI.
	if err := rep.ReconcileObs(); err != nil {
		log.Fatal(err)
	}
	events := rec.Events()
	fmt.Printf("  %d events over %d ticks; first three:\n", len(events), rep.Ticks)
	for _, ev := range events[:3] {
		fmt.Printf("    tick %2d  slot %2d  %-10s %s %s\n", ev.Tick, ev.Slot, ev.Kind, ev.Session, ev.Detail)
	}
	snap := rep.Obs
	fmt.Printf("  trailing-%d-tick window at finish: %.2f tok/tick (%.2f good), mean queue %.2f, hit rate %.3f\n",
		snap.Window, snap.TokensPerTick, snap.GoodTokensPerTick, snap.MeanQueueDepth, snap.HitRate)
	fmt.Printf("  event totals: %d admits, %d preempt-suspends, %d retries, %d ok finishes\n",
		snap.Counts.Admits, snap.Counts.Preemptions, snap.Counts.Retries, snap.Counts.FinishedOK)
	tracePath := filepath.Join(os.TempDir(), "serving-trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Chrome trace written to %s — open it at https://ui.perfetto.dev\n", tracePath)

	// 7. Scale-out: the sim-cluster runs replica engines on one shared tick
	//    clock behind a session router. This trace is tenant-skewed — six
	//    of nine sessions belong to one "hot" tenant, and the router's
	//    affinity key is the ID prefix before '/' — so consistent hashing
	//    hot-spots one node while least-loaded spreads the same trace.
	//    Every cluster metric runs on the tick clock; reports and merged
	//    event logs are bit-identical across worker counts and decode
	//    paths.
	fmt.Println("\n== sim-cluster: hash vs least-loaded routing on a skewed-tenant trace ==")
	creqs := make([]serving.Request, 9)
	for i := range creqs {
		n := 192 + (i%3)*64
		tenant := fmt.Sprintf("t%d", i)
		if i%3 != 2 {
			tenant = "hot"
		}
		slo := serving.SLO{Class: "batch"}
		if i%2 == 0 {
			slo = serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 160}
		}
		creqs[i] = serving.Request{
			ID:     fmt.Sprintf("%s/s%d", tenant, i),
			Scheme: sparsity.NewDIPCA(0.5, 0.2),
			Tokens: test[i*256 : i*256+n],
			SLO:    slo,
		}
	}
	nodeCfg := serving.Config{
		System: sys, Arb: serving.ArbShared, Sched: serving.EDF(),
		MaxActive: 2, Quantum: 8, Seed: 42,
	}
	for _, router := range []cluster.Router{cluster.ConsistentHash(), cluster.LeastLoaded()} {
		workload, err := serving.PoissonArrivals(creqs, 0.25, 777)
		if err != nil {
			log.Fatal(err)
		}
		cl, err := cluster.New(m, cluster.Config{
			Nodes:  []serving.Config{nodeCfg, nodeCfg, nodeCfg},
			Router: router, Seed: 7,
		}, workload)
		if err != nil {
			log.Fatal(err)
		}
		crep, err := cl.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  router=%-12s placements %v  imbalance %.2f  SLO attainment %.2f  queue p99 %3.0f t\n",
			crep.Router, crep.Placements, crep.Imbalance, crep.SLOAttainRate, crep.QueueP99)
	}

	//    Lifecycle: the same trace again, now with node 2 administratively
	//    drained at tick 16 (placements stop, queued work re-routes, active
	//    sessions finish locally) and node 0 failing at tick 24 — its live
	//    sessions are suspended and migrate to survivors with their stream
	//    and cache state carried through the same Release/Regrant hooks
	//    preemption uses, then resume where they stopped.
	workload, err = serving.PoissonArrivals(creqs, 0.25, 777)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cluster.New(m, cluster.Config{
		Nodes:     []serving.Config{nodeCfg, nodeCfg, nodeCfg},
		Router:    cluster.LeastLoaded(),
		Seed:      7,
		DrainTick: 16, DrainNode: 2,
		Failures: []cluster.Failure{{Node: 0, Tick: 24, Ticks: 96}},
		Obs:      &obs.Config{Window: 32},
	}, workload)
	if err != nil {
		log.Fatal(err)
	}
	crep, err := cl.Run()
	if err != nil {
		log.Fatal(err)
	}
	// The merged per-node event log must balance the rolled-up report —
	// per-node books can't (a migrant admits on its source and finishes on
	// its target), but the cluster-wide sums must.
	if err := crep.ReconcileObs(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  drain+failover: drains %d  failures %d  live migrations %d  requeues %d  mean migrant wait %.1f t\n",
		crep.Drains, crep.Failures, crep.Migrations, crep.Requeues, crep.MeanMigrantWait)
	okSessions := 0
	for _, nr := range crep.Nodes {
		state := "survivor"
		if nr.Drained {
			state = "drained"
		}
		if nr.FailedTicks > 0 {
			state = fmt.Sprintf("failed %d t", nr.FailedTicks)
		}
		fmt.Printf("    node %d  %-11s placements %d  finished %d session(s)  %.3f sim tok/s\n",
			nr.Node, state, nr.Placements, len(nr.Report.Sessions), nr.Report.SimTokS)
		for _, sm := range nr.Report.Sessions {
			if sm.Outcome == serving.OutcomeOK {
				okSessions++
			}
		}
	}
	fmt.Printf("  %d/%d sessions finished OK; %d events merged across nodes (each stamped with its node)\n",
		okSessions, crep.Sessions, len(cl.Events()))
}
