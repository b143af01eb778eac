package sparsity

import (
	"repro/internal/model"
	"repro/internal/tensor"
)

// LayerStats collects per-layer activation magnitudes from a calibration
// run: the absolute GLU activations and the absolute gate activations
// σ(W_g x).
type LayerStats struct {
	AbsGLU  [][]float32 // [layer][sample]
	AbsGate [][]float32
}

// CollectStats runs the dense model over the calibration tokens (windowed)
// and gathers the activation statistics every scheme calibration needs
// from the first maxTokens MLP inputs of each layer.
func CollectStats(m *model.Model, tokens []int, win, maxTokens int) *LayerStats {
	ins := model.MLPInputs(m, tokens, win, maxTokens)
	st := &LayerStats{
		AbsGLU:  make([][]float32, len(ins)),
		AbsGate: make([][]float32, len(ins)),
	}
	for layer, xs := range ins {
		mlp := m.Blocks[layer].MLP
		for _, x := range xs {
			u := tensor.MatVec(mlp.Up.P.W, x, nil)
			g := tensor.MatVec(mlp.Gate.P.W, x, nil)
			for i := range u {
				ga := mlp.Act.Apply(g[i])
				st.AbsGLU[layer] = append(st.AbsGLU[layer], abs(u[i]*ga))
				st.AbsGate[layer] = append(st.AbsGate[layer], abs(ga))
			}
		}
	}
	return st
}

// GlobalThreshold returns the single threshold achieving the target mean
// GLU keep density across all layers.
func (st *LayerStats) GlobalThreshold(rho float64) float32 {
	var all []float32
	for _, layer := range st.AbsGLU {
		all = append(all, layer...)
	}
	return tensor.Quantile(all, 1-rho)
}

// PerLayerThresholds returns per-layer thresholds each achieving the
// target GLU keep density on the calibration distribution.
func (st *LayerStats) PerLayerThresholds(rho float64) []float32 {
	return layerQuantiles(st.AbsGLU, rho)
}

// CATSThresholds returns per-layer thresholds on |σ(W_g x)| achieving the
// target keep density, the CATS calibration.
func (st *LayerStats) CATSThresholds(rho float64) []float32 {
	return layerQuantiles(st.AbsGate, rho)
}

// layerQuantiles returns each layer's (1−ρ)-quantile of its samples, the
// threshold that keeps a fraction ρ of them.
func layerQuantiles(samples [][]float32, rho float64) []float32 {
	out := make([]float32, len(samples))
	for l, vals := range samples {
		out[l] = tensor.Quantile(vals, 1-rho)
	}
	return out
}
