package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/sparsity"
)

// methodEval is one (scheme or surgically-modified model) evaluated for
// quality: the model to run and the scheme to mask it with (nil scheme =
// dense evaluation, used for statically pruned models).
type methodEval struct {
	label  string
	m      *model.Model
	scheme sparsity.Scheme
}

// qualityMethods builds the Table-1 method grid for one analog at an MLP
// density target. includeSemi adds the 2:4/4:8 SparseGPT variants (Table 1
// only).
func qualityMethods(l *Lab, name string, density float64, includeSemi bool) []methodEval {
	m := l.Model(name)
	// Intermediate-axis keep rate for Gate/Up/CATS at this MLP density:
	// density = (1 + 2ρ)/3 → ρ = (3·density − 1)/2.
	rowRho := (3*density - 1) / 2
	if rowRho < 0.02 {
		rowRho = 0.02
	}
	preds := l.Predictors(name)
	dip := sparsity.NewDIP(density)
	cats := l.CATS(name, rowRho)
	evals := []methodEval{
		{"dense", m, nil},
		{"glu-oracle", m, &sparsity.GLUOracle{Rho: density}},
		{"sparsegpt-unstructured", l.SparseGPT(name, prune.Unstructured, 1-density), nil},
	}
	if includeSemi {
		evals = append(evals,
			methodEval{"sparsegpt-2:4", l.SparseGPT(name, prune.Semi2of4, 0.5), nil},
			methodEval{"sparsegpt-4:8", l.SparseGPT(name, prune.Semi4of8, 0.5), nil},
		)
	}
	evals = append(evals,
		methodEval{"gate", m, &sparsity.GatePrune{Rho: rowRho}},
		methodEval{"up", m, &sparsity.UpPrune{Rho: rowRho}},
		methodEval{"dejavu", m, &sparsity.Predictive{Rho: density, Score: preds.ScoreFunc()}},
		methodEval{"cats", m, cats},
		methodEval{"cats+lora", l.Fused(name, cats, fmt.Sprintf("%.2f", rowRho), false), cats},
		methodEval{"dip", m, dip},
		methodEval{"dip+lora", l.Fused(name, dip, fmt.Sprintf("%.2f", density), true), dip},
	)
	return evals
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
	test := l.TestTokens(0)
	l.Warm(names...)
	// Build each analog's method list (training predictors / pruned / fused
	// artifacts on first use) with analogs in parallel, then evaluate the
	// whole (name × method) grid concurrently. Shared schemes (CATS between
	// "cats" and "cats+lora", DIP between "dip" and "dip+lora") are cloned
	// per cell so scratch state is never shared.
	methods := make([][]methodEval, len(names))
	if err := forEach(len(names), func(ni int) error {
		methods[ni] = qualityMethods(l, names[ni], density, includeSemi)
		return nil
	}); err != nil {
		return nil, err
	}
	type cellRes struct{ ppl, acc, d float64 }
	results := make([][]cellRes, len(names))
	if err := forEach(len(names), func(ni int) error {
		results[ni] = make([]cellRes, len(methods[ni]))
		return forEach(len(methods[ni]), func(mi int) error {
			me := methods[ni][mi]
			scheme := sparsity.Clone(me.scheme)
			var r cellRes
			if scheme == nil {
				r.ppl = model.Perplexity(me.m, test, l.EvalWin(), nil)
				r.d = 1
				if me.label != "dense" {
					r.d = 1 - prune.MLPSparsity(me.m) // statically pruned
				}
			} else {
				r.ppl, r.d = eval.PerplexityUnderScheme(me.m, scheme, test, l.EvalWin())
			}
			r.acc = eval.MCAccuracy(me.m, scheme, l.Tokenizer(), items)
			results[ni][mi] = r
			return nil
		})
	}); err != nil {
		return nil, err
	}
	for ni, name := range names {
		for mi, me := range methods[ni] {
			r := results[ni][mi]
			out.AddRow(me.label, name, r.ppl, r.acc, r.d)
		}
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
	for _, name := range names {
		m := l.Model(name)
		preds := l.Predictors(name)
		methods := []methodEval{
			{"dense", m, nil},
			{"glu-oracle", m, &sparsity.GLUOracle{Rho: density}},
			{"sparsegpt-unstructured", l.SparseGPT(name, prune.Unstructured, 0.5), nil},
			{"dejavu", m, &sparsity.Predictive{Rho: density, Score: preds.ScoreFunc()}},
			{"cats", m, l.CATS(name, 0.25)},
			{"dip", m, sparsity.NewDIP(density)},
		}
		kinds := data.TaskKinds()
		itemsByKind := make([][]data.MCItem, len(kinds))
		for ki, kind := range kinds {
			itemsByKind[ki] = l.MCItems(kind, 300+uint64(kind))
		}
		accs := make([]float64, len(kinds)*len(methods))
		if err := forEach(len(accs), func(i int) error {
			me := methods[i%len(methods)]
			accs[i] = eval.MCAccuracy(me.m, sparsity.Clone(me.scheme), l.Tokenizer(), itemsByKind[i/len(methods)])
			return nil
		}); err != nil {
			return nil, err
		}
		for i, acc := range accs {
			out.AddRow(name, methods[i%len(methods)].label, kinds[i/len(methods)].String(), acc)
		}
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
	test := l.TestTokens(0)
	densePPL := model.Perplexity(m, test, l.EvalWin(), nil)
	denseAcc := eval.MCAccuracy(m, nil, l.Tokenizer(), items)
	out.AddRow("dense", 1.0, densePPL, denseAcc)
	// Flatten the (density × method) sweep and fan it out; emit rows from
	// the indexed results in the original order.
	type sweepCell struct {
		label   string
		density float64
		me      methodEval
	}
	var cells []sweepCell
	for _, density := range densities {
		rowRho := (3*density - 1) / 2
		if rowRho < 0.02 {
			rowRho = 0.02
		}
		methods := []methodEval{
			{"sparsegpt-unstructured", l.SparseGPT(name, prune.Unstructured, 1-density), nil},
			{"dejavu", m, &sparsity.Predictive{Rho: density, Score: preds.ScoreFunc()}},
			{"cats", m, l.CATS(name, rowRho)},
			{"dip", m, sparsity.NewDIP(density)},
		}
		if l.Scale == model.ScalePaper {
			methods = append(methods,
				methodEval{"sparsegpt-2:4", l.SparseGPT(name, prune.Semi2of4, 0.5), nil},
				methodEval{"sparsegpt-4:8", l.SparseGPT(name, prune.Semi4of8, 0.5), nil},
			)
		}
		for _, me := range methods {
			// Semi-structured points are fixed at 50% sparsity; skip
			// repeats at other densities.
			if (me.label == "sparsegpt-2:4" || me.label == "sparsegpt-4:8") && density != 0.5 {
				continue
			}
			cells = append(cells, sweepCell{me.label, density, me})
		}
	}
	type sweepRes struct{ ppl, acc float64 }
	results := make([]sweepRes, len(cells))
	if err := forEach(len(cells), func(i int) error {
		me := cells[i].me
		scheme := sparsity.Clone(me.scheme)
		var r sweepRes
		if scheme == nil {
			r.ppl = model.Perplexity(me.m, test, l.EvalWin(), nil)
		} else {
			r.ppl, _ = eval.PerplexityUnderScheme(me.m, scheme, test, l.EvalWin())
		}
		r.acc = eval.MCAccuracy(me.m, scheme, l.Tokenizer(), items)
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	for i, c := range cells {
		out.AddRow(c.label, c.density, results[i].ppl, results[i].acc)
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
