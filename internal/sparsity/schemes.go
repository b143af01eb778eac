package sparsity

import (
	"math"
	"slices"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// GLUPrune is "GLU pruning" (Figure 5a / Eq. 4): compute the GLU
// activations densely, then keep only the top-K magnitude activations when
// applying W_d. Only one of the three matrices sparsifies, so MLP density
// is bounded below by 2/3. With Thresholds it keeps the units with |h_i| at
// or above the layer's threshold: Figure 4's global (one value at every
// layer) and per-layer strategies; its per-token strategy is top-K.
type GLUPrune struct {
	// RhoGLU is the fraction of GLU activations kept.
	RhoGLU float64
	// Thresholds, when non-nil, holds one |h| threshold per layer and
	// replaces RhoGLU's top-K.
	Thresholds []float32

	// scratch reused across calls (schemes are used sequentially; parallel
	// evaluations give each worker its own copy via Clone). The schemes of
	// this file keep their unit list in scratch until their next Forward.
	h, y tensor.Vec
	glu  nn.MLPScratch
	sel  selector
}

// Name implements Scheme.
func (s *GLUPrune) Name() string { return "glu" }

// CloneStateless implements StatefulScheme.
func (s *GLUPrune) CloneStateless() Scheme {
	return &GLUPrune{RhoGLU: s.RhoGLU, Thresholds: s.Thresholds}
}

// Forward implements Scheme.
func (s *GLUPrune) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	s.h = mlp.GLUInto(x, resize(s.h, mlp.DFF), &s.glu)
	keys := s.sel.keysFor(mlp.DFF)
	for i, v := range s.h {
		keys[i] = tensor.OrderKey(abs(v))
	}
	idx := s.sel.pick(layer, s.RhoGLU, s.Thresholds)
	s.y = tensor.MatVecSparse(mlp.Down.P.W, s.h, idx, resize(s.y, mlp.Dim))
	var ta TokenAccess
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: idx}
	return s.y, ta
}

// GLUOracle is "GLU pruning (oracle)": identical output to GLUPrune, but
// the access record pretends a perfect predictor identified the top-K GLU
// activations in advance, so all three matrices sparsify to the same unit
// set. It upper-bounds what any predictive scheme could achieve (Table 1).
type GLUOracle struct {
	// Rho is the fraction of GLU units kept (equals the MLP density).
	Rho float64

	prune GLUPrune
}

// Name implements Scheme.
func (s *GLUOracle) Name() string { return "glu-oracle" }

// CloneStateless implements StatefulScheme.
func (s *GLUOracle) CloneStateless() Scheme { return &GLUOracle{Rho: s.Rho} }

// Forward implements Scheme.
func (s *GLUOracle) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, cache CacheView) (tensor.Vec, TokenAccess) {
	s.prune.RhoGLU = s.Rho
	y, ta := s.prune.Forward(layer, x, mlp, cache)
	ta.Groups[GroupUpRows] = ta.Groups[GroupDown]
	ta.Groups[GroupGateRows] = ta.Groups[GroupDown]
	return y, ta
}

// GatePrune is "Gate pruning" (Figure 5b / Eq. 5): evaluate σ(W_g x)
// densely, keep the top-K partial activations, and restrict W_u rows and
// W_d columns to that set. With Thresholds it is CATS, contextually-aware
// thresholding (Lee et al., 2024): a fixed per-layer threshold on
// |σ(W_g x)| calibrated offline, so the kept count varies per token.
type GatePrune struct {
	// Rho is the fraction of intermediate units kept.
	Rho float64
	// Thresholds, when non-nil, holds one calibrated |σ(g)| threshold per
	// layer and replaces Rho's top-K.
	Thresholds []float32

	g, y tensor.Vec
	sel  selector
}

// Name implements Scheme.
func (s *GatePrune) Name() string {
	if s.Thresholds != nil {
		return "cats"
	}
	return "gate"
}

// CloneStateless implements StatefulScheme.
func (s *GatePrune) CloneStateless() Scheme { return &GatePrune{Rho: s.Rho, Thresholds: s.Thresholds} }

// Forward implements Scheme.
func (s *GatePrune) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	s.g = tensor.MatVec(mlp.Gate.P.W, x, resize(s.g, mlp.DFF))
	keys := s.sel.keysFor(mlp.DFF)
	for i, v := range s.g {
		keys[i] = tensor.OrderKey(abs(mlp.Act.Apply(v)))
	}
	idx := s.sel.pick(layer, s.Rho, s.Thresholds)
	s.y = sparseRowsOutput(mlp, x, s.g, idx, resize(s.y, mlp.Dim))
	var ta TokenAccess
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessSparse, Units: idx}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: idx}
	return s.y, ta
}

// sparseRowsOutput computes Σ_{i∈idx} W_d[:,i] · (W_u[i,:]·x) · σ(g_i)
// given precomputed gate pre-activations g, into out (allocated when nil).
// It overwrites g on idx with the GLU activations h_i it feeds W_d.
func sparseRowsOutput(mlp *nn.GLUMLP, x, g tensor.Vec, idx []int, out tensor.Vec) tensor.Vec {
	for _, i := range idx {
		g[i] = mlp.Up.P.W.Row(i).Dot(x) * mlp.Act.Apply(g[i])
	}
	return tensor.MatVecSparse(mlp.Down.P.W, g, idx, out)
}

// UpPrune is "Up pruning": the mirror of GatePrune — evaluate W_u x
// densely, keep the top-K |u_i|, and restrict W_g rows and W_d columns.
type UpPrune struct {
	// Rho is the fraction of intermediate units kept.
	Rho float64

	u, y tensor.Vec
	sel  selector
}

// Name implements Scheme.
func (s *UpPrune) Name() string { return "up" }

// CloneStateless implements StatefulScheme.
func (s *UpPrune) CloneStateless() Scheme { return &UpPrune{Rho: s.Rho} }

// Forward implements Scheme.
func (s *UpPrune) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	s.u = tensor.MatVec(mlp.Up.P.W, x, resize(s.u, mlp.DFF))
	keys := s.sel.keysFor(mlp.DFF)
	for i, v := range s.u {
		keys[i] = tensor.OrderKey(abs(v))
	}
	idx := s.sel.pick(layer, s.Rho, nil)
	// u becomes the GLU activation h on the kept units.
	for _, i := range idx {
		s.u[i] *= mlp.Act.Apply(mlp.Gate.P.W.Row(i).Dot(x))
	}
	s.y = tensor.MatVecSparse(mlp.Down.P.W, s.u, idx, resize(s.y, mlp.Dim))
	var ta TokenAccess
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessSparse, Units: idx}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: idx}
	return s.y, ta
}

// selector is the unit selection GLUPrune, GatePrune and UpPrune share:
// the scheme writes keys[i] = tensor.OrderKey(|v_i|) of its score source v
// into keysFor's slice, and pick turns the keys into the kept units.
type selector struct {
	keys []uint32
	topk tensor.TopKScratch
	idx  []int
}

// keysFor returns the selector's key buffer sized to n units.
func (s *selector) keysFor(n int) []uint32 {
	s.keys = slices.Grow(s.keys[:0], n)[:n]
	return s.keys
}

// pick returns the kept units, ascending: the top-K by keep fraction rho
// when thresholds is nil; otherwise every unit whose score is at or above
// the layer's threshold, or the strongest unit (the lowest index on a tie)
// when none is, CATS's rule. It compares keys, so the rule is |v| ≥ thr on
// the floats: a NaN score passes no threshold and a NaN threshold admits no
// unit, where the NaN key 0 alone would admit every one.
func (s *selector) pick(layer int, rho float64, thresholds []float32) []int {
	if thresholds == nil {
		s.idx = tensor.TopKKeysInto(s.keys, keepCount(rho, len(s.keys)), &s.topk, s.idx)
		return s.idx
	}
	thr := thresholds[layer]
	t := tensor.OrderKey(thr)
	if thr != thr {
		t = math.MaxUint32 // above every key
	}
	idx := s.idx[:0]
	for i, k := range s.keys {
		if k >= t {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		idx = tensor.TopKKeysInto(s.keys, 1, &s.topk, idx)
	}
	s.idx = idx
	return idx
}

// ScoreFunc produces predictor logits over the dff intermediate units for
// an MLP input (DejaVu-style). Supplied by the predictor package.
type ScoreFunc func(layer int, x tensor.Vec) tensor.Vec

// Predictive is predictive GLU pruning (Figure 5c / Eq. 6): a trained
// predictor selects the unit set before any MLP weight is read, so all
// three matrices sparsify — when the predictor is right.
type Predictive struct {
	// Rho is the fraction of intermediate units kept.
	Rho float64
	// Score returns predictor logits per unit. It must be safe for
	// concurrent calls (the predictor package's ScoreFunc is pure).
	Score ScoreFunc

	h, y tensor.Vec
	topk tensor.TopKScratch
	idx  []int
}

// Name implements Scheme.
func (s *Predictive) Name() string { return "dejavu" }

// CloneStateless implements StatefulScheme.
func (s *Predictive) CloneStateless() Scheme {
	return &Predictive{Rho: s.Rho, Score: s.Score}
}

// Forward implements Scheme.
func (s *Predictive) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	scores := s.Score(layer, x)
	k := keepCount(s.Rho, mlp.DFF)
	s.idx = tensor.TopKIndicesInto(scores, k, &s.topk, s.idx)
	s.h = resize(s.h, mlp.DFF)
	for _, i := range s.idx {
		s.h[i] = mlp.Up.P.W.Row(i).Dot(x) * mlp.Act.Apply(mlp.Gate.P.W.Row(i).Dot(x))
	}
	s.y = tensor.MatVecSparse(mlp.Down.P.W, s.h, s.idx, resize(s.y, mlp.Dim))
	var ta TokenAccess
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessSparse, Units: s.idx}
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessSparse, Units: s.idx}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: s.idx}
	return s.y, ta
}
