package experiments

import (
	"fmt"
	"slices"

	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Fig3 reproduces the GLU activation-magnitude histograms contrasting a
// SwiGLU model (near-zero mass concentrated but few exact zeros) with its
// ReLU-fied counterpart (a large spike of exact zeros).
func Fig3(l *Lab) ([]*Table, error) {
	out := &Table{
		ID:      "fig3",
		Title:   "GLU activation magnitude distribution: SwiGLU vs ReLU-fied",
		Columns: []string{"model", "bin_lo", "bin_hi", "density"},
	}
	summary := &Table{
		ID:      "fig3-zeros",
		Title:   "Exact/near-zero GLU activation fraction",
		Columns: []string{"model", "exact_zero_frac", "below_1e-3_of_max"},
	}
	names := []string{model.Mistral7BSim, model.ReluFiedSim}
	l.Warm(names...)
	stats, err := runGrid(names, func(name string) (*sparsity.LayerStats, error) {
		return sparsity.CollectStats(l.Model(name), l.CalibTokens(), l.EvalWin(), 256), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		st := stats[ni]
		all := st.AbsGLU[len(st.AbsGLU)-1] // the paper plots layer 31; we use the last layer
		maxV := max(slices.Max(all), 0)
		if maxV == 0 {
			maxV = 1
		}
		counts, edges := tensor.Histogram(all, 12, 0, maxV)
		total := len(all)
		for b := 0; b < len(counts); b++ {
			out.AddRow(name, float64(edges[b]), float64(edges[b+1]), float64(counts[b])/float64(total))
		}
		zeros, tiny := 0, 0
		for _, v := range all {
			if v == 0 {
				zeros++
			}
			if v < 1e-3*maxV {
				tiny++
			}
		}
		summary.AddRow(name, float64(zeros)/float64(total), float64(tiny)/float64(total))
	}
	summary.Notes = append(summary.Notes,
		"SwiGLU has almost no exact zeros; the ReLU-fied analog is naturally sparse (paper Section 2/Figure 3)")
	return []*Table{out, summary}, nil
}

// Fig4 compares the three GLU thresholding strategies at 50% mean GLU
// density: a single global threshold, calibrated per-layer thresholds, and
// per-token top-K. It reports the per-layer achieved density and the test
// perplexity of each strategy.
func Fig4(l *Lab) ([]*Table, error) {
	name := model.Mistral7BSim
	m := l.Model(name)
	st := sparsity.CollectStats(m, l.CalibTokens(), l.EvalWin(), 256)
	const rho = 0.5
	strategies := []*sparsity.GLUThreshold{
		{Mode: sparsity.ThresholdGlobal, Global: st.GlobalThreshold(rho)},
		{Mode: sparsity.ThresholdPerLayer, PerLayer: st.PerLayerThresholds(rho)},
		{Mode: sparsity.ThresholdPerToken, Rho: rho},
	}
	perLayer := &Table{
		ID:      "fig4",
		Title:   "Layer activation density per GLU thresholding strategy @50% target",
		Columns: []string{"strategy", "layer", "mean_density"},
	}
	ppls := &Table{
		ID:      "fig4-ppl",
		Title:   "Perplexity per thresholding strategy",
		Columns: []string{"strategy", "ppl"},
	}
	test := l.TestTokens(0)
	dense := model.Perplexity(m, test, l.EvalWin(), nil)
	L := len(m.Blocks)
	for _, s := range strategies {
		s.LastDensity = make([]float64, L)
		sums := make([]float64, L)
		n := 0
		hook := func(layer int, x tensor.Vec) tensor.Vec {
			y, _ := s.Forward(layer, x, m.Blocks[layer].MLP, nil)
			sums[layer] += s.LastDensity[layer]
			if layer == 0 {
				n++
			}
			return y
		}
		ppl := model.Perplexity(m, test, l.EvalWin(), hook)
		for layer := 0; layer < L; layer++ {
			perLayer.AddRow(s.Mode.String(), layer, sums[layer]/float64(n))
		}
		ppls.AddRow(s.Mode.String(), ppl)
	}
	ppls.AddRow("dense", dense)
	ppls.Notes = append(ppls.Notes,
		"paper Figure 4: global threshold collapses early layers and hurts ppl; per-layer ≈ per-token")
	return []*Table{perLayer, ppls}, nil
}

// Fig6 contrasts GLU pruning (oracle ranking by true |GLU|) against
// predictive GLU pruning (DejaVu predictors) on the SwiGLU analog and its
// ReLU-fied counterpart across GLU density levels, measured by mixed-task
// multiple-choice accuracy and predictor top-K recall.
func Fig6(l *Lab) ([]*Table, error) {
	out := &Table{
		ID:      "fig6",
		Title:   "GLU vs predictive pruning on SwiGLU and ReLU-fied analogs",
		Columns: []string{"model", "strategy", "glu_density", "mc_acc_%", "pred_recall"},
	}
	densities := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	if l.Scale == model.ScaleTest {
		densities = []float64{0.25, 0.5, 1.0}
	}
	items := l.MixedMCItems(99)
	names := []string{model.Mistral7BSim, model.ReluFiedSim}
	l.Warm(names...)
	// One cell per table row: the dense accuracy per analog, then per
	// density the GLU-pruned and the predictive accuracy, the latter with
	// the predictors' top-K recall.
	type fig6Cell struct {
		name, strategy string
		rho            float64
	}
	var cells []fig6Cell
	for _, name := range names {
		cells = append(cells, fig6Cell{name, "dense", 1})
		for _, rho := range densities {
			cells = append(cells, fig6Cell{name, "glu", rho}, fig6Cell{name, "glu-predictive", rho})
		}
	}
	rows, err := runGrid(cells, func(c fig6Cell) ([]any, error) {
		m := l.Model(c.name)
		var s sparsity.Scheme
		recall := "-"
		switch c.strategy {
		case "glu":
			s = &sparsity.GLUPrune{RhoGLU: c.rho}
		case "glu-predictive":
			s = &sparsity.Predictive{Rho: c.rho, Score: l.Predictors(c.name).ScoreFunc()}
			recall = fmt.Sprintf("%.3f", predictorRecall(l, c.name, c.rho))
		}
		return []any{c.name, c.strategy, c.rho, eval.MCAccuracy(m, s, l.Tokenizer(), items), recall}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		out.AddRow(row...)
	}
	out.Notes = append(out.Notes,
		"paper Figure 6: predictive pruning tracks GLU pruning on the ReLU-fied model and collapses on SwiGLU")
	return []*Table{out}, nil
}

func predictorRecall(l *Lab, name string, rho float64) float64 {
	m := l.Model(name)
	preds := l.Predictors(name)
	maxTokens := 96
	if l.Scale == model.ScalePaper {
		maxTokens = 256
	}
	return predictor.RecallAtK(m, preds, l.ValidTokens(), l.EvalWin(), rho, maxTokens)
}
