package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/sparsity"
)

// qualityMethods builds the Table-1 method cells for one analog at an MLP
// density target, scored on items. includeSemi adds the 2:4/4:8 SparseGPT
// variants (Table 1 only).
func qualityMethods(l *Lab, name string, density float64, includeSemi bool, items []data.MCItem) []qualCell {
	m := l.Model(name)
	rho := rowRho(density)
	preds := l.Predictors(name)
	dip := sparsity.NewDIP(density)
	cats := l.CATS(name, rho)
	cells := []qualCell{
		{"dense", m, nil, items},
		{"glu-oracle", m, &sparsity.GLUOracle{Rho: density}, items},
		{"sparsegpt-unstructured", l.SparseGPT(name, prune.Unstructured, 1-density), nil, items},
	}
	if includeSemi {
		cells = append(cells,
			qualCell{"sparsegpt-2:4", l.SparseGPT(name, prune.Semi2of4, 0.5), nil, items},
			qualCell{"sparsegpt-4:8", l.SparseGPT(name, prune.Semi4of8, 0.5), nil, items},
		)
	}
	return append(cells,
		qualCell{"gate", m, &sparsity.GatePrune{Rho: rho}, items},
		qualCell{"up", m, &sparsity.UpPrune{Rho: rho}, items},
		qualCell{"dejavu", m, &sparsity.Predictive{Rho: density, Score: preds.ScoreFunc()}, items},
		qualCell{"cats", m, cats, items},
		qualCell{"cats+lora", l.Fused(name, cats, fmt.Sprintf("%.2f", rho), false), cats, items},
		qualCell{"dip", m, dip, items},
		qualCell{"dip+lora", l.Fused(name, dip, fmt.Sprintf("%.2f", density), true), dip, items},
	)
}

// qualityTable runs the Table 1/3/4 grid at one density.
func qualityTable(l *Lab, id string, density float64, includeSemi bool) ([]*Table, error) {
	out := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Dynamic sparsity methods at %.0f%% MLP density: perplexity and mixed-task accuracy", 100*density),
		Columns: []string{"method", "model", "ppl", "mc_acc_%", "measured_density"},
	}
	names := model.AnalogNames()
	if l.Scale == model.ScaleTest {
		names = names[:2] // keep tests fast; the paper grid runs all four
		out.Notes = append(out.Notes, "test scale: first two analogs only")
	}
	items := l.MixedMCItems(7)
	l.Warm(names...)
	// Build each analog's cells (training predictors / pruned / fused
	// artifacts on first use) with analogs in parallel, then score the
	// whole (name × method) grid.
	lists, err := runGrid(names, func(name string) ([]qualCell, error) {
		return qualityMethods(l, name, density, includeSemi, items), nil
	})
	if err != nil {
		return nil, err
	}
	var g keyedCells[qualCell]
	for i, name := range names {
		for _, c := range lists[i] {
			g.add(c, c.label, name)
		}
	}
	res, err := runGrid(g.cells, l.quality)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		out.AddRow(g.row(i, r.ppl, r.acc, r.density)...)
	}
	out.Notes = append(out.Notes,
		"density ignores predictor/mask overheads, as in the paper's Table 1 footnote")
	return []*Table{out}, nil
}

// Table1 is the 50%-density method grid (paper Table 1).
func Table1(l *Lab) ([]*Table, error) { return qualityTable(l, "tab1", 0.5, true) }

// Table3 is the 60%-density grid (paper Table 3).
func Table3(l *Lab) ([]*Table, error) { return qualityTable(l, "tab3", 0.6, false) }

// Table4 is the 40%-density grid (paper Table 4).
func Table4(l *Lab) ([]*Table, error) { return qualityTable(l, "tab4", 0.4, false) }

// Table5 evaluates the per-task battery at 50% MLP density (paper Table 5:
// ARC/BoolQ/... replaced by the synthetic task families).
func Table5(l *Lab) ([]*Table, error) {
	out := &Table{
		ID:      "tab5",
		Title:   "Accuracy at 50% MLP density across task families",
		Columns: []string{"model", "method", "task", "acc_%"},
	}
	const density = 0.5
	names := model.AnalogNames()
	if l.Scale == model.ScaleTest {
		names = names[:1]
	}
	var g keyedCells[qualCell]
	for _, name := range names {
		m := l.Model(name)
		preds := l.Predictors(name)
		methods := []qualCell{
			{"dense", m, nil, nil},
			{"glu-oracle", m, &sparsity.GLUOracle{Rho: density}, nil},
			{"sparsegpt-unstructured", l.SparseGPT(name, prune.Unstructured, 0.5), nil, nil},
			{"dejavu", m, &sparsity.Predictive{Rho: density, Score: preds.ScoreFunc()}, nil},
			{"cats", m, l.CATS(name, rowRho(density)), nil},
			{"dip", m, sparsity.NewDIP(density), nil},
		}
		for _, kind := range data.TaskKinds() {
			items := l.MCItems(kind, 300+uint64(kind))
			for _, c := range methods {
				c.items = items
				g.add(c, name, c.label, kind.String())
			}
		}
	}
	// Table 5 reports accuracy only, so its cells skip quality's perplexity
	// pass; MCAccuracy clones the scheme per worker itself.
	accs, err := runGrid(g.cells, func(c qualCell) (float64, error) {
		return eval.MCAccuracy(c.m, c.scheme, l.Tokenizer(), c.items), nil
	})
	if err != nil {
		return nil, err
	}
	for i, acc := range accs {
		out.AddRow(g.row(i, acc)...)
	}
	return []*Table{out}, nil
}

// Fig8 sweeps MLP density and reports the perplexity and accuracy Pareto
// curves for the Phi-3-Medium analog (paper Figure 8; Figure 14 runs the
// same sweep on the other analogs via the model parameter of dipbench).
func Fig8(l *Lab) ([]*Table, error) {
	return densitySweep(l, "fig8", model.Phi3MedSim)
}

func densitySweep(l *Lab, id, name string) ([]*Table, error) {
	out := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Quality vs MLP density sweep on %s", name),
		Columns: []string{"method", "density", "ppl", "mc_acc_%"},
	}
	m := l.Model(name)
	preds := l.Predictors(name)
	densities := []float64{0.3, 0.4, 0.5, 0.6, 0.8}
	if l.Scale == model.ScaleTest {
		densities = []float64{0.4, 0.6}
	}
	items := l.MixedMCItems(11)
	var g keyedCells[qualCell]
	g.add(qualCell{"dense", m, nil, items}, "dense", 1.0)
	for _, density := range densities {
		cells := []qualCell{
			{"sparsegpt-unstructured", l.SparseGPT(name, prune.Unstructured, 1-density), nil, items},
			{"dejavu", m, &sparsity.Predictive{Rho: density, Score: preds.ScoreFunc()}, items},
			{"cats", m, l.CATS(name, rowRho(density)), items},
			{"dip", m, sparsity.NewDIP(density), items},
		}
		// Semi-structured points are fixed at 50% sparsity: one each, at
		// density 0.5.
		if l.Scale == model.ScalePaper && density == 0.5 {
			cells = append(cells,
				qualCell{"sparsegpt-2:4", l.SparseGPT(name, prune.Semi2of4, 0.5), nil, items},
				qualCell{"sparsegpt-4:8", l.SparseGPT(name, prune.Semi4of8, 0.5), nil, items},
			)
		}
		for _, c := range cells {
			g.add(c, c.label, density)
		}
	}
	res, err := runGrid(g.cells, l.quality)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		out.AddRow(g.row(i, r.ppl, r.acc)...)
	}
	out.Notes = append(out.Notes,
		"paper Figure 8: DIP dominates static and predictive baselines at every density")
	return []*Table{out}, nil
}

// Fig14 runs the Figure 8 sweep on the remaining analogs (paper Fig. 14).
func Fig14(l *Lab) ([]*Table, error) {
	names := []string{model.Phi3MiniSim, model.Llama8BSim, model.Mistral7BSim}
	if l.Scale == model.ScaleTest {
		names = names[:1]
	}
	var tables []*Table
	for _, n := range names {
		ts, err := densitySweep(l, "fig14-"+n, n)
		if err != nil {
			return nil, err
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}
