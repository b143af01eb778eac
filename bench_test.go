// Package repro_test hosts the benchmark harness: BenchmarkDrivers runs
// every experiment driver, one sub-benchmark per table and figure of the
// paper (at miniature scale, so `go test -bench=.` completes on a laptop);
// `cmd/dipbench -exp <id>` runs the same drivers at paper scale. Reported
// metrics: ns/op is the wall time of regenerating the artifact, and custom
// metrics surface the headline quantities of each experiment.
package repro_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

var (
	benchLab  *experiments.Lab
	benchOnce sync.Once
)

func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab = experiments.NewLab(model.ScaleTest)
		// Warm the two analogs most drivers touch (concurrently, across the
		// worker pool) so their training cost is excluded from
		// per-experiment timings.
		benchLab.Warm(model.Phi3MedSim, model.Mistral7BSim)
	})
	return benchLab
}

// metric extracts a float cell from the first row matching the filters.
func metric(tables []*experiments.Table, tableID string, match map[string]string, col string) (float64, bool) {
	for _, t := range tables {
		if t.ID != tableID {
			continue
		}
		colIdx := -1
		for i, c := range t.Columns {
			if c == col {
				colIdx = i
			}
		}
		if colIdx < 0 {
			return 0, false
		}
		for _, row := range t.Rows {
			ok := true
			for mc, mv := range match {
				mi := -1
				for i, c := range t.Columns {
					if c == mc {
						mi = i
					}
				}
				if mi < 0 || row[mi] != mv {
					ok = false
					break
				}
			}
			if ok {
				if v, err := strconv.ParseFloat(row[colIdx], 64); err == nil {
					return v, true
				}
				return 0, false
			}
		}
	}
	return 0, false
}

// serveBenchModel is the bandwidth-bound miniature analog the serving
// benchmarks decode: two layers at dim 256 / dff 768, so each MLP matrix is
// ~768 KB — past the on-core caches, in the weight-streaming regime the
// paper's batching economics are about — while a session still decodes in
// milliseconds. Weights are random (throughput does not care) and built
// once, shared by both benchmark variants.
var (
	serveBenchM    *model.Model
	serveBenchOnce sync.Once
)

func serveBenchModel() *model.Model {
	serveBenchOnce.Do(func() {
		serveBenchM = model.New(model.Config{
			Name: "bench-bw-sim", Vocab: model.DefaultVocab, Dim: 256, Layers: 2,
			Heads: 4, KVHeads: 2, DFF: 768, MaxSeq: 64, Act: nn.ActSiLU,
		}, 5)
	})
	return serveBenchM
}

// serveBench runs one batch-8 DIP-CA serving engine to completion with the
// fused decode path on or off, reporting aggregate decoded tokens per wall
// second as a custom metric. Engines are single-shot, so each iteration
// builds a fresh one; construction cost (plan probe, admission) is shared
// by both variants and small next to the decode loop.
func serveBench(b *testing.B, noFuse bool) {
	m := serveBenchModel()
	const batch = 8
	const win = 32
	rng := tensor.NewRNG(9)
	toks := make([]int, 4096)
	for i := range toks {
		toks[i] = int(rng.Uint64() % uint64(m.Cfg.Vocab))
	}
	sys := eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: win}
	scheme := sparsity.NewDIPCA(0.5, 0.2)
	makeReqs := func() []serving.Request {
		reqs := make([]serving.Request, batch)
		for i := range reqs {
			n := 2*win + (i%2)*win
			reqs[i] = serving.Request{
				ID:     fmt.Sprintf("s%d", i),
				Scheme: scheme,
				Tokens: toks[i*128 : i*128+n],
			}
		}
		return reqs
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := serving.NewEngine(m, serving.Config{
			System: sys, Arb: serving.ArbShared, MaxActive: batch,
			Quantum: 8, Seed: 1, NoFuse: noFuse,
		}, serving.FixedBatch(makeReqs()))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += rep.TotalTokens
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkServeBatched is the serving engine's batched decode path at
// batch 8: one batched step per token sub-quantum walks the attention
// projections and the output head once for all eight sessions; each
// session's DIP-CA MLP runs per column.
func BenchmarkServeBatched(b *testing.B) { serveBench(b, false) }

// BenchmarkServeUnbatched is the same workload with Config.NoFuse: the same
// decode loop, each sub-step advancing every session with its own Step,
// fanned out over the worker pool — the per-session baseline the fused step
// is measured against.
func BenchmarkServeUnbatched(b *testing.B) { serveBench(b, true) }

// headlines are the custom metrics BenchmarkDrivers reports: for experiment
// id, column col of the first row of table whose cells equal match.
var headlines = []struct {
	id, table string
	match     map[string]string
	col, unit string
}{
	{"fig2", "fig2-fits", map[string]string{"series": "model_b_params"}, "annual_rate", "model-growth/yr"},
	{"fig3", "fig3-zeros", map[string]string{"model": model.ReluFiedSim}, "exact_zero_frac", "relu-zero-frac"},
	{"fig4", "fig4-ppl", map[string]string{"strategy": "global"}, "ppl", "global-ppl"},
	{"fig4", "fig4-ppl", map[string]string{"strategy": "per-token"}, "ppl", "per-token-ppl"},
	{"fig6", "fig6", map[string]string{"model": model.ReluFiedSim, "strategy": "glu-predictive", "glu_density": "0.500"}, "pred_recall", "relu-recall"},
	{"tab1", "tab1", map[string]string{"model": model.Phi3MedSim, "method": "dip"}, "ppl", "dip-ppl"},
	{"tab3", "tab3", map[string]string{"model": model.Phi3MedSim, "method": "dip"}, "ppl", "dip-ppl"},
	{"tab4", "tab4", map[string]string{"model": model.Phi3MedSim, "method": "dip"}, "ppl", "dip-ppl"},
	{"tab5", "tab5", map[string]string{"model": model.Phi3MedSim, "method": "dip", "task": "spelling"}, "acc_%", "dip-spelling-acc%"},
	{"fig8", "fig8", map[string]string{"method": "dip", "density": "0.600"}, "ppl", "dip-ppl@0.6"},
	{"tab2", "tab2", map[string]string{"model": model.Phi3MedSim, "method": "dip-ca"}, "tok_s_@+0.5ppl", "dipca-tok/s"},
	{"tab2", "tab2", map[string]string{"model": model.Phi3MedSim, "method": "dense"}, "tok_s_@+0.5ppl", "dense-tok/s"},
	{"fig9", "fig9", map[string]string{"config": "bq4"}, "ppl", "bq4-ppl"},
	{"fig10", "fig10", map[string]string{"gamma": "0.200"}, "tok_s", "tok/s@γ=0.2"},
	{"fig11", "fig11", map[string]string{"config": "dip-belady", "density": "0.600"}, "hit_rate", "belady-hit-rate"},
	{"fig11", "fig11", map[string]string{"config": "dip-ca-lfu", "density": "0.600"}, "hit_rate", "dipca-hit-rate"},
	{"tab6", "tab6", map[string]string{"device": "dram-6gb", "method": "dip-ca"}, "tok_s_@+0.5ppl", "dipca-6gb-tok/s"},
	{"abl-alloc", "abl-alloc", map[string]string{"allocation": "uniform", "density": "0.500"}, "hit_rate", "uniform-hit-rate"},
	{"abl-alloc", "abl-alloc", map[string]string{"allocation": "trace-weighted", "density": "0.500"}, "hit_rate", "weighted-hit-rate"},
	{"tab7", "tab7", map[string]string{"device": "flash-2GBs", "method": "dip-ca"}, "tok_s_@+0.5ppl", "dipca-2GBs-tok/s"},
}

// BenchmarkDrivers regenerates every registered experiment, one
// sub-benchmark per id (BenchmarkDrivers/fig2 runs one), and reports each
// experiment's headline metrics.
func BenchmarkDrivers(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			l := lab(b)
			var tables []*experiments.Table
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if tables, err = experiments.Run(l, id); err != nil {
					b.Fatalf("%s: %v", id, err)
				}
			}
			b.StopTimer()
			for _, h := range headlines {
				if h.id != id {
					continue
				}
				if v, ok := metric(tables, h.table, h.match, h.col); ok {
					b.ReportMetric(v, h.unit)
				}
			}
		})
	}
}
