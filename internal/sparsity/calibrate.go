package sparsity

import (
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ThresholdMode selects the GLU thresholding strategy compared in Figure 4.
type ThresholdMode int

const (
	// ThresholdGlobal applies one fixed threshold to every layer.
	ThresholdGlobal ThresholdMode = iota
	// ThresholdPerLayer applies a calibrated per-layer threshold.
	ThresholdPerLayer
	// ThresholdPerToken keeps the top-K per token (equivalent to GLUPrune).
	ThresholdPerToken
)

// String names the mode.
func (m ThresholdMode) String() string {
	switch m {
	case ThresholdGlobal:
		return "global"
	case ThresholdPerLayer:
		return "per-layer"
	case ThresholdPerToken:
		return "per-token"
	default:
		return "invalid"
	}
}

// GLUThreshold is GLU pruning with magnitude thresholds instead of top-K,
// used for the Figure 4 comparison. Per-token mode reduces to GLUPrune.
type GLUThreshold struct {
	Mode ThresholdMode
	// Global is the single threshold for ThresholdGlobal mode.
	Global float32
	// PerLayer holds a threshold per layer for ThresholdPerLayer mode.
	PerLayer []float32
	// Rho is the per-token keep fraction for ThresholdPerToken mode.
	Rho float64
	// LastDensity records the GLU keep fraction of the most recent call per
	// layer, letting Figure 4 report per-layer achieved densities.
	LastDensity []float64

	h, score, y tensor.Vec
	glu         nn.MLPScratch
	topk        tensor.TopKScratch
	idx         []int
}

// Name implements Scheme.
func (s *GLUThreshold) Name() string { return "glu-threshold-" + s.Mode.String() }

// CloneStateless implements StatefulScheme: the clone shares the calibrated
// thresholds (read-only) but records its own LastDensity, so concurrent
// evaluations never write the same slice. Callers wanting the per-layer
// densities must read them from the instance they actually ran.
func (s *GLUThreshold) CloneStateless() Scheme {
	c := &GLUThreshold{Mode: s.Mode, Global: s.Global, PerLayer: s.PerLayer, Rho: s.Rho}
	if s.LastDensity != nil {
		c.LastDensity = make([]float64, len(s.LastDensity))
	}
	return c
}

// Forward implements Scheme.
func (s *GLUThreshold) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	s.h = mlp.GLUInto(x, resize(s.h, mlp.DFF), &s.glu)
	h := s.h
	idx := s.idx[:0]
	switch s.Mode {
	case ThresholdPerToken:
		s.score = absScores(h, resize(s.score, mlp.DFF))
		idx = tensor.TopKIndicesInto(s.score, keepCount(s.Rho, mlp.DFF), &s.topk, idx)
	default:
		thr := s.Global
		if s.Mode == ThresholdPerLayer {
			thr = s.PerLayer[layer]
		}
		for i, v := range h {
			a := v
			if a < 0 {
				a = -a
			}
			if a >= thr {
				idx = append(idx, i)
			}
		}
	}
	if len(s.LastDensity) > layer {
		s.LastDensity[layer] = float64(len(idx)) / float64(mlp.DFF)
	}
	s.idx = idx
	s.y = tensor.MatVecSparse(mlp.Down.P.W, h, idx, resize(s.y, mlp.Dim))
	var ta TokenAccess
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: idx}
	return s.y, ta
}

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
				h := u[i] * ga
				if h < 0 {
					h = -h
				}
				if ga < 0 {
					ga = -ga
				}
				st.AbsGLU[layer] = append(st.AbsGLU[layer], h)
				st.AbsGate[layer] = append(st.AbsGate[layer], ga)
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
	out := make([]float32, len(st.AbsGLU))
	for l, vals := range st.AbsGLU {
		out[l] = tensor.Quantile(vals, 1-rho)
	}
	return out
}

// CATSThresholds returns per-layer thresholds on |σ(W_g x)| achieving the
// target keep density, the CATS calibration.
func (st *LayerStats) CATSThresholds(rho float64) []float32 {
	out := make([]float32, len(st.AbsGate))
	for l, vals := range st.AbsGate {
		out[l] = tensor.Quantile(vals, 1-rho)
	}
	return out
}
