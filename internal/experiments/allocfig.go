package experiments

import (
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/sparsity"
)

// Fig12 reproduces the Appendix-B.1 density-allocation calibration: a grid
// of (ρ_in, ρ_glu) trials, the Pareto front in the (density, perplexity)
// plane, the linear fit in logit space, and the fitted allocator's
// predictions versus the built-in AllocateDIP rule.
func Fig12(l *Lab) ([]*Table, error) {
	name := model.Mistral7BSim
	m := l.Model(name)
	test := l.TestTokens(0)
	if len(test) > 1536 && l.Scale == model.ScaleTest {
		test = test[:1536]
	}
	grid := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	if l.Scale == model.ScaleTest {
		grid = []float64{0.3, 0.6, 1.0}
	}
	trials := &Table{
		ID:      "fig12-trials",
		Title:   "Allocation trials: (rho_in, rho_glu) grid",
		Columns: []string{"rho_in", "rho_glu", "mlp_density", "ppl"},
	}
	// The (rho_in × rho_glu) grid points are independent evaluations.
	var cells []sparsity.AllocTrial
	for _, rin := range grid {
		for _, rglu := range grid {
			cells = append(cells, sparsity.AllocTrial{RhoIn: rin, RhoGLU: rglu})
		}
	}
	all, err := runGrid(cells, func(tr sparsity.AllocTrial) (sparsity.AllocTrial, error) {
		tr.PPL, tr.Density = eval.PerplexityUnderScheme(m, &sparsity.DIP{RhoIn: tr.RhoIn, RhoGLU: tr.RhoGLU, Gamma: 1}, test, l.EvalWin())
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	for _, tr := range all {
		trials.AddRow(tr.RhoIn, tr.RhoGLU, tr.Density, tr.PPL)
	}
	front := sparsity.ParetoFront(all)
	frontT := &Table{
		ID:      "fig12-front",
		Title:   "Pareto-optimal allocations",
		Columns: []string{"rho_in", "rho_glu", "mlp_density", "ppl"},
	}
	for _, tr := range front {
		frontT.AddRow(tr.RhoIn, tr.RhoGLU, tr.Density, tr.PPL)
	}
	a, b := sparsity.FitLogitLinear(front)
	fit := &Table{
		ID:      "fig12",
		Title:   "Logit-linear Pareto fit and allocator comparison",
		Columns: []string{"target_density", "fitted_rho_in", "fitted_rho_glu", "default_rho_in", "default_rho_glu"},
	}
	alloc := sparsity.FittedAllocator{A: a, B: b}
	for _, d := range []float64{0.3, 0.4, 0.5, 0.6, 0.7} {
		fr, fg := alloc.Allocate(d)
		dr, dg := sparsity.AllocateDIP(d)
		fit.AddRow(d, fr, fg, dr, dg)
	}
	fit.Notes = append(fit.Notes,
		"fit: logit(rho_in) = a + b*logit(density)",
		"on the narrow analogs the Pareto front allocates the input side (W_u/W_g) more density than W_d,",
		"the opposite of the paper's 4k-wide models — residual-stream redundancy scales with width")
	return []*Table{trials, frontT, fit}, nil
}
