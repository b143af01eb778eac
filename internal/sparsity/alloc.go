package sparsity

import (
	"math"
	"sort"

	"repro/internal/tensor"
)

// AllocTrial is one point of the Appendix-B.1 allocation search: a choice
// of per-group keep fractions with its resulting MLP density and measured
// perplexity.
type AllocTrial struct {
	RhoIn, RhoGLU float64
	Density       float64
	PPL           float64
}

// ParetoFront returns the trials not dominated in (density, ppl): a trial
// is kept when no other trial has both lower-or-equal density and strictly
// lower perplexity. Results are sorted by density.
func ParetoFront(trials []AllocTrial) []AllocTrial {
	sorted := make([]AllocTrial, len(trials))
	copy(sorted, trials)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Density != sorted[j].Density {
			return sorted[i].Density < sorted[j].Density
		}
		return sorted[i].PPL < sorted[j].PPL
	})
	var front []AllocTrial
	best := math.Inf(1)
	for _, tr := range sorted {
		if tr.PPL < best {
			front = append(front, tr)
			best = tr.PPL
		}
	}
	return front
}

// FitLogitLinear fits logit(ρ_in) = a + b·logit(density) to the Pareto
// front by least squares, the linear-in-logit-space model of Figure 12.
func FitLogitLinear(front []AllocTrial) (a, b float64) {
	if len(front) == 0 {
		return 0, 1
	}
	if len(front) == 1 {
		return tensor.Logit(front[0].RhoIn) - tensor.Logit(front[0].Density), 1
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(front))
	for _, tr := range front {
		x := tensor.Logit(tr.Density)
		y := tensor.Logit(tr.RhoIn)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return sy/n - sx/n, 1
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}

// FittedAllocator maps a target MLP density to (ρ_in, ρ_glu) using fitted
// logit-linear coefficients, enforcing the density constraint
// (2·ρ_in + ρ_glu)/3 = target by solving for ρ_glu and clamping.
type FittedAllocator struct {
	A, B float64
}

// Allocate returns the keep fractions for a target density.
func (f FittedAllocator) Allocate(target float64) (rhoIn, rhoGLU float64) {
	if target <= 0 {
		return 0.02, 0.02
	}
	if target >= 1 {
		return 1, 1
	}
	rhoIn = tensor.Expit(f.A + f.B*tensor.Logit(target))
	rhoGLU = 3*target - 2*rhoIn
	if rhoGLU > 1 {
		rhoIn += (rhoGLU - 1) / 2
		rhoGLU = 1
	}
	if rhoGLU < 0.02 {
		rhoIn -= (0.02 - rhoGLU) / 2
		rhoGLU = 0.02
	}
	return min(max(rhoIn, 0.02), 1), rhoGLU
}
