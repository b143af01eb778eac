package experiments

import (
	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/sparsity"
)

// AblAlloc reproduces the paper's Appendix-A negative finding: allocating
// the DRAM cache budget non-uniformly across layers (weighted by each
// layer's recorded miss traffic) "did not find significant improvements"
// over the uniform split. The driver measures both allocations on the same
// token stream and reports the throughput/hit-rate delta.
func AblAlloc(l *Lab) ([]*Table, error) {
	name := model.Phi3MedSim
	m := l.Model(name)
	test := l.TestTokens(0)
	if l.Scale == model.ScaleTest && len(test) > 768 {
		test = test[:768]
	} else if len(test) > 3072 {
		test = test[:3072]
	}
	out := &Table{
		ID:      "abl-alloc",
		Title:   "Uniform vs trace-weighted per-layer cache allocation (DIP @ 50%, LFU)",
		Columns: []string{"allocation", "density", "ppl", "tok_s", "hit_rate"},
	}
	dev := hwsim.A18Like()
	cfg := eval.SystemConfig{Device: dev, Policy: cache.PolicyLFU, Win: l.EvalWin()}
	densities := []float64{0.4, 0.5, 0.6}
	// Each density is one recorded pass, priced twice: on the uniform plan,
	// then on the same plan reweighted by the trace's per-layer traffic.
	res, err := runGrid(densities, func(density float64) ([2]eval.Point, error) {
		s := sparsity.NewDIP(density)
		plan, err := hwsim.NewPlan(m, dev, hwsim.PlanOpts{Groups: hwsim.ProbeGroups(s, m)})
		if err != nil {
			return [2]eval.Point{}, err
		}
		tr, err := eval.Record(m, s, test, cfg)
		if err != nil {
			return [2]eval.Point{}, err
		}
		uni := eval.Replay(tr, plan, cfg.Policy).Point()
		if err := plan.ApplyLayerWeights(tr.LayerWeights()); err != nil {
			return [2]eval.Point{}, err
		}
		return [2]eval.Point{uni, eval.Replay(tr, plan, cfg.Policy).Point()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, density := range densities {
		for j, alloc := range []string{"uniform", "trace-weighted"} {
			pt := res[i][j]
			out.AddRow(alloc, density, pt.PPL, pt.Throughput, pt.HitRate)
		}
	}
	out.Notes = append(out.Notes,
		"paper Appendix A: non-uniform allocation gives no significant improvement — DIP's per-token unit counts are constant per layer, so miss pressure is already uniform")
	return []*Table{out}, nil
}
