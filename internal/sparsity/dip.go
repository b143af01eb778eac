package sparsity

import (
	"slices"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// DIP is Dynamic Input Pruning (Section 4, Eq. 7–8), optionally with the
// cache-aware re-weighting of Section 5 (Eq. 10 / Algorithm 1):
//
//  1. keep the top-K_in input coordinates by |x| (re-weighted by cache
//     state when Gamma < 1 and a CacheView is present), pruning the
//     corresponding columns of W_u and W_g;
//  2. compute the approximate GLU activations with the pruned matrices;
//  3. keep the top-K_glu intermediate units by |GLU~(x)| (again optionally
//     re-weighted), pruning the corresponding columns of W_d.
//
// No predictor is involved: the mask is derived from activations the
// decoder computes anyway.
type DIP struct {
	// RhoIn is the fraction of input coordinates kept (W_u/W_g columns).
	RhoIn float64
	// RhoGLU is the fraction of intermediate units kept (W_d columns).
	RhoGLU float64
	// Gamma is the cache-aware penalty on non-cached units (Eq. 10).
	// Gamma < 1 is DIP-CA, named "dip-ca"; Gamma == 1 is plain DIP, with
	// no re-weighting. The paper tunes 0.2.
	Gamma float64

	// scratch buffers reused across calls (schemes are used sequentially;
	// parallel evaluations give each worker its own copy via Clone). The
	// unit lists Forward hands out through TokenAccess.Units are inIdx and
	// gluIdx: they stay valid until the next Forward on this DIP.
	g, h, y       tensor.Vec
	keys          []uint32
	topk          tensor.TopKScratch
	inIdx, gluIdx []int
}

// CloneStateless implements StatefulScheme.
func (s *DIP) CloneStateless() Scheme {
	return &DIP{RhoIn: s.RhoIn, RhoGLU: s.RhoGLU, Gamma: s.Gamma}
}

// NewDIP returns plain DIP with the density allocation for the target MLP
// density (Appendix B.1).
func NewDIP(targetDensity float64) *DIP {
	rin, rglu := AllocateDIP(targetDensity)
	return &DIP{RhoIn: rin, RhoGLU: rglu, Gamma: 1}
}

// NewDIPCA returns cache-aware DIP with penalty gamma (the paper fixes 0.2);
// at gamma 1 it is plain DIP.
func NewDIPCA(targetDensity, gamma float64) *DIP {
	rin, rglu := AllocateDIP(targetDensity)
	return &DIP{RhoIn: rin, RhoGLU: rglu, Gamma: gamma}
}

// Name implements Scheme.
func (s *DIP) Name() string {
	if s.Gamma < 1 {
		return "dip-ca"
	}
	return "dip"
}

// TargetDensity returns the MLP density implied by the allocation.
func (s *DIP) TargetDensity() float64 { return (2*s.RhoIn + s.RhoGLU) / 3 }

// ReadsCache reports whether s's masks depend on the CacheView it is given:
// DIP-CA (DIP with γ < 1), the one scheme whose accesses cannot be recorded
// once and replayed against another memory system.
func ReadsCache(s Scheme) bool {
	d, ok := s.(*DIP)
	return ok && d.Gamma < 1
}

// score writes one stage's ranking scores into keys as tensor.OrderKey keys:
// |src_i|, and under cache-aware masking Eq. 10's s_i = |src_i|·(c_i +
// γ(1−c_i)) / ‖src‖∞ with c read from the group's residency slice. The
// ‖src‖∞ normalization keeps γ comparable across tokens with different
// dynamic ranges; it does not change the ranking for a fixed token but is
// retained for fidelity with the paper (and because Figure 10's γ sweep
// reports the normalized scores). A key is written in the pass that takes
// |src_i| and its weight, so no float score is stored.
func (s *DIP) score(src tensor.Vec, keys []uint32, layer int, group GroupID, cache CacheView) []uint32 {
	keys = keys[:len(src)]
	if s.Gamma >= 1 || cache == nil {
		for i, v := range src {
			keys[i] = tensor.OrderKey(abs(v))
		}
		return keys
	}
	var norm float32
	for _, v := range src {
		if a := abs(v); a > norm {
			norm = a
		}
	}
	if norm == 0 {
		norm = 1
	}
	inv := 1 / norm
	// Indexed by residency, so the weight is a load and not a branch the
	// cache state decides.
	weight := [2]float32{float32(s.Gamma) * inv, inv}
	resident := cache.Resident(layer, group)
	resident = resident[:min(len(resident), len(keys))]
	for i, r := range resident {
		c := 0
		if r {
			c = 1
		}
		keys[i] = tensor.OrderKey(abs(src[i]) * weight[c])
	}
	for i := len(resident); i < len(keys); i++ {
		keys[i] = tensor.OrderKey(abs(src[i]) * weight[0])
	}
	return keys
}

// Forward implements Scheme.
func (s *DIP) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, cache CacheView) (tensor.Vec, TokenAccess) {
	dim, dff := mlp.Dim, mlp.DFF
	s.keys = slices.Grow(s.keys[:0], max(dim, dff)) // both stages' keys, allocated once
	// Stage 1: input pruning.
	keys := s.score(x, s.keys, layer, GroupUpGate, cache)
	s.inIdx = tensor.TopKKeysInto(keys, keepCount(s.RhoIn, dim), &s.topk, s.inIdx)
	// Stage 2: approximate GLU on the pruned input columns, u ⊙ σ(g) in h.
	s.h = resize(s.h, dff)
	s.g = resize(s.g, dff)
	tensor.MatVecSparse(mlp.Up.P.W, x, s.inIdx, s.h)
	tensor.MatVecSparse(mlp.Gate.P.W, x, s.inIdx, s.g)
	mlp.Act.GLU(s.h, s.h, s.g)
	// Stage 3: GLU pruning on the approximate activations.
	keys = s.score(s.h, s.keys, layer, GroupDown, cache)
	s.gluIdx = tensor.TopKKeysInto(keys, keepCount(s.RhoGLU, dff), &s.topk, s.gluIdx)
	s.y = resize(s.y, dim)
	y := tensor.MatVecSparse(mlp.Down.P.W, s.h, s.gluIdx, s.y)
	var ta TokenAccess
	ta.Groups[GroupUpGate] = GroupAccess{Kind: AccessSparse, Units: s.inIdx}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: s.gluIdx}
	return y, ta
}

// resize is the package-local shorthand for tensor.Reuse.
func resize(v tensor.Vec, n int) tensor.Vec { return tensor.Reuse(v, n) }

// AllocateDIP maps a target MLP density ρ to the per-group keep fractions
// (ρ_in for the W_u/W_g columns, ρ_glu for the W_d columns) subject to
// (2·ρ_in + ρ_glu)/3 = ρ. Following Appendix B.1, the rule is a linear
// model in logit space, logit(ρ_in) = a + b·logit(ρ), with (a, b) =
// (0.62, 1.53) fitted on the Pareto front of a (ρ_in, ρ_glu) grid search over WikiText-style
// perplexity (the fig12 experiment regenerates that calibration). On the
// trained analogs the front allocates the *input* side more density than
// the down projection — pruning residual-stream coordinates is the more
// damaging of DIP's two approximations.
func AllocateDIP(target float64) (rhoIn, rhoGLU float64) {
	return FittedAllocator{A: 0.62, B: 1.53}.Allocate(target)
}
