package serving_test

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/sparsity"
)

// Eight users decode their own streams under DIP-CA at 50% density against
// one shared cache. They arrive as a seeded Poisson process in two SLO
// classes: even users are interactive (priority 2, a 64-tick deadline), odd
// users best-effort batch. Two decode slots against eight users means queues
// form, and the EDF scheduler pulls deadlined sessions ahead of batch work.
// Every metric runs on the simulated tick clock, so the output is the same
// at any worker count.
func ExampleNewEngine() {
	tok := data.NewTokenizer()
	splits := data.NewSplits(73, 14000, 6000)
	m := model.New(model.Config{
		Name: model.Mistral7BSim, Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}, 29)
	opts := model.DefaultTrainOpts()
	opts.Steps, opts.Batch, opts.SeqLen = 100, 2, 31
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		panic(err)
	}

	test := tok.Encode(splits.Test)
	reqs := make([]serving.Request, 8)
	for i := range reqs {
		slo := serving.SLO{Class: "batch"}
		if i%2 == 0 {
			slo = serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 64}
		}
		reqs[i] = serving.Request{
			ID:     fmt.Sprintf("user-%d", i),
			Scheme: sparsity.NewDIPCA(0.5, 0.2),
			Tokens: test[i*256 : i*256+64+(i%3)*32],
			SLO:    slo,
		}
	}
	workload, err := serving.PoissonArrivals(reqs, 0.25, 1234)
	if err != nil {
		panic(err)
	}
	engine, err := serving.NewEngine(m, serving.Config{
		System:    eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU},
		Arb:       serving.ArbShared, // one cache shared by every session
		Sched:     serving.EDF(),
		MaxActive: 2, // two sessions decode concurrently
		Quantum:   8, // tokens each session advances per tick
		Seed:      42,
	}, workload)
	if err != nil {
		panic(err)
	}
	rep, err := engine.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.3f sim tok/s, hit rate %.3f, %d ticks, SLO attainment %.3f, queue p50 %.3f ticks, turnaround p99 %.3f ticks\n",
		rep.SimTokS, rep.HitRate, rep.Ticks, rep.SLOAttainRate, rep.QueueP50, rep.TurnaroundP99)
	queued := map[string]int{}
	for _, sm := range rep.Sessions {
		queued[sm.SLO.Class] += sm.QueueTicks
	}
	fmt.Printf("ticks queued: batch %d, interactive %d\n", queued["batch"], queued["interactive"])
	// Output:
	// 1.595 sim tok/s, hit rate 0.727, 65 ticks, SLO attainment 1.000, queue p50 4.000 ticks, turnaround p99 36.000 ticks
	// ticks queued: batch 44, interactive 12
}
