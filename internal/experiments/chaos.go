package experiments

import (
	"fmt"

	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/sparsity"
)

// Chaos measures the serving engine's robustness machinery under seeded
// fault injection: the same open-loop Poisson trace is replayed across a
// grid of fault rate × recovery policy × arbitration × preemptor, with a
// faults.Mix plan (transient step faults, grant revocations, request
// cancellations, capacity dips) driving the chaos and retry/backoff plus
// admission-control shedding driving the recovery. Every cell runs on the
// simulated tick clock with stateless per-(seed, tick, slot) fault draws,
// so the whole grid is bit-identical for a fixed -seed, any worker count,
// either decode path. The companion chaos-recovery table summarizes the
// headline comparison per rate: SLO attainment with recovery on versus a
// no-recovery baseline (retry budget 1, no shedding) on the identical
// trace and fault schedule.
func Chaos(l *Lab) ([]*Table, error) {
	s := l.Serve
	x := l.requestMix(8, 12, 6)
	scheme := sparsity.NewDIP(0.5)
	const slots = 2
	deadline := x.deadline(slots)
	makeWorkload := func() (serving.Workload, error) {
		reqs := x.requests(scheme, deadline, func(i int) string { return fmt.Sprintf("c%02d", i) })
		return x.poisson(reqs, slots)
	}

	faultRates := []float64{0.02, 0.05}
	if s.Faults > 0 {
		faultRates = []float64{s.Faults}
	}
	retryAttempts := s.Retry
	if retryAttempts <= 0 {
		retryAttempts = 3
	}
	shedBudget := s.Shed
	if shedBudget <= 0 {
		shedBudget = 2 * slots
	}
	arbSweep := []serving.ArbPolicy{serving.ArbFairShare, serving.ArbExclusive}
	if s.Smoke {
		arbSweep = arbSweep[:1]
	}
	arbs, err := axis(s.Arb, serving.ParseArbPolicy, arbSweep...)
	if err != nil {
		return nil, err
	}
	preempts, err := axis(s.Preempt, serving.ParsePreemptor, serving.NoPreempt(), serving.DeadlinePreempt())
	if err != nil {
		return nil, err
	}

	runCell := func(frate float64, recover bool, pre serving.Preemptor, arb serving.ArbPolicy) (*serving.Report, error) {
		plan, err := faults.Mix(frate, s.Seed+2)
		if err != nil {
			return nil, err
		}
		cfg := serving.Config{
			System: x.sys, Arb: arb, Sched: serving.EDF(), Preempt: pre,
			MaxActive: slots, Quantum: quantum, Seed: s.Seed,
			Faults: plan, Retry: faults.RetryPolicy{MaxAttempts: 1},
		}
		mode := "none"
		if recover {
			mode = "recovery"
			cfg.Retry = faults.RetryPolicy{MaxAttempts: retryAttempts}
			cfg.ShedQueueBudget = shedBudget
		}
		w, err := makeWorkload()
		if err != nil {
			return nil, err
		}
		return l.runEngine(x, cfg, w, fmt.Sprintf("%v-%s-%s-%s", frate, mode, pre.Name(), arb))
	}

	out := &Table{
		ID:    "chaos",
		Title: "Fault injection grid: seeded chaos (step faults, revocations, cancels, capacity dips) vs retry/backoff + load shedding",
		Columns: []string{"fault_rate", "recovery", "preempt", "policy", "sessions",
			"sim_tok_s", "goodput", "faults", "retries", "failed", "shed",
			"slo_attain", "mean_recover_t", "dip_slot_t"},
	}
	type ratePair struct {
		base, rec  float64 // summed attainment across cells
		cells      int
		recRetries int
		recGoodput float64
	}
	pairs := make([]ratePair, len(faultRates))
	for ri, frate := range faultRates {
		for _, recover := range []bool{false, true} {
			for _, pre := range preempts {
				for _, arb := range arbs {
					rep, err := runCell(frate, recover, pre, arb)
					if err != nil {
						return nil, err
					}
					mode := "none"
					if recover {
						mode = "retry+shed"
					}
					nFaults := rep.StepFaults + rep.Revocations + rep.Cancellations
					out.AddRow(frate, mode, pre.Name(), arb.String(), len(rep.Sessions),
						rep.SimTokS, rep.Goodput, nFaults, rep.Retries, rep.Failed, rep.Shed,
						rep.SLOAttainRate, rep.MeanRecoverTicks, rep.DipSlotTicks)
					if recover {
						pairs[ri].rec += rep.SLOAttainRate
						pairs[ri].recRetries += rep.Retries
						pairs[ri].recGoodput += rep.Goodput
					} else {
						pairs[ri].base += rep.SLOAttainRate
						pairs[ri].cells++
					}
				}
			}
		}
	}
	out.Notes = append(out.Notes,
		"fault draws are pure functions of (seed, tick, slot): every cell is bit-identical for a fixed -seed, any worker count, fused or per-session decode",
		"recovery=none runs the identical fault schedule with a single attempt and no shedding; retry+shed adds seeded exponential backoff and admission-control load shedding with graceful degradation",
		"goodput counts only tokens of sessions that completed OK — (sim_tok_s − goodput) prices retried prefixes and failed/cancelled work",
		"mean_recover_t is the mean ticks from a fault-triggered suspension to the session decoding again; dip_slot_t is slot-ticks of capacity lost to dips",
	)
	summary := &Table{
		ID:    "chaos-recovery",
		Title: "Recovery headline: mean SLO attainment with retry+shedding vs the no-recovery baseline, identical fault schedule",
		Columns: []string{"fault_rate", "cells", "attain_base", "attain_recovery",
			"goodput_recovery", "retries"},
		Notes: []string{
			"attainment is averaged over the preempt × arbitration cells at each rate; both columns replay the same seeded trace and fault schedule",
		},
	}
	for ri, frate := range faultRates {
		n := float64(pairs[ri].cells)
		summary.AddRow(frate, pairs[ri].cells, pairs[ri].base/n, pairs[ri].rec/n,
			pairs[ri].recGoodput/n, pairs[ri].recRetries)
	}
	return []*Table{out, summary}, nil
}
