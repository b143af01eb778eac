package hwsim

import (
	"fmt"

	"repro/internal/sparsity"
)

// This file implements non-uniform cache allocation, the alternative the
// paper's Appendix A reports exploring ("We did not find significant
// improvements when exploring non-uniform cache allocation"). The repo
// keeps it as a first-class option so that finding can be reproduced
// rather than assumed: derive per-layer weights from a recorded access
// trace (eval.Trace.LayerWeights) and compare against the uniform default.

// ApplyLayerWeights rescales the plan's per-layer cache capacities by the
// given weights (mean-1 normalized internally), keeping the total cache
// budget constant. It returns an error on length mismatch.
func (p *Plan) ApplyLayerWeights(weights []float64) error {
	if len(weights) != p.layers {
		return fmt.Errorf("hwsim: %d weights for %d layers", len(weights), p.layers)
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			return fmt.Errorf("hwsim: negative layer weight %v", w)
		}
		sum += w
	}
	if sum == 0 {
		return fmt.Errorf("hwsim: all-zero layer weights")
	}
	norm := float64(p.layers) / sum
	perLayerBase := p.CacheBudgetBytes / float64(p.layers)
	for l := 0; l < p.layers; l++ {
		share := perLayerBase * weights[l] * norm
		// Redistribute within the layer proportionally to group bytes, as
		// NewPlan does.
		var layerBytes float64
		for g := sparsity.GroupID(0); g < sparsity.NumGroups; g++ {
			if p.NUnits[l][g] > 0 {
				layerBytes += float64(p.NUnits[l][g]) * p.unitBytes[g]
			}
		}
		for g := sparsity.GroupID(0); g < sparsity.NumGroups; g++ {
			if p.NUnits[l][g] == 0 {
				continue
			}
			groupBytes := float64(p.NUnits[l][g]) * p.unitBytes[g]
			p.Caps[l][g] = int(share * groupBytes / layerBytes / p.unitBytes[g])
		}
	}
	return nil
}
