package sparsity

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// GLUPrune is "GLU pruning" (Figure 5a / Eq. 4): compute the GLU
// activations densely, then keep only the top-K magnitude activations when
// applying W_d. Only one of the three matrices sparsifies, so MLP density
// is bounded below by 2/3.
type GLUPrune struct {
	// RhoGLU is the fraction of GLU activations kept.
	RhoGLU float64

	// scratch reused across calls (schemes are used sequentially; parallel
	// evaluations give each worker its own copy via Clone). The schemes of
	// this file keep their unit list in idx, valid until their next Forward.
	h, score, y tensor.Vec
	glu         nn.MLPScratch
	topk        tensor.TopKScratch
	idx         []int
}

// Name implements Scheme.
func (s *GLUPrune) Name() string { return "glu" }

// CloneStateless implements StatefulScheme.
func (s *GLUPrune) CloneStateless() Scheme { return &GLUPrune{RhoGLU: s.RhoGLU} }

// Forward implements Scheme.
func (s *GLUPrune) Forward(_ int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	s.h = mlp.GLUInto(x, resize(s.h, mlp.DFF), &s.glu)
	k := keepCount(s.RhoGLU, mlp.DFF)
	s.score = absScores(s.h, resize(s.score, mlp.DFF))
	s.idx = tensor.TopKIndicesInto(s.score, k, &s.topk, s.idx)
	s.y = tensor.MatVecSparse(mlp.Down.P.W, s.h, s.idx, resize(s.y, mlp.Dim))
	var ta TokenAccess
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: s.idx}
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
// W_d columns to that set.
type GatePrune struct {
	// Rho is the fraction of intermediate units kept.
	Rho float64

	g, score, y tensor.Vec
	topk        tensor.TopKScratch
	idx         []int
}

// Name implements Scheme.
func (s *GatePrune) Name() string { return "gate" }

// CloneStateless implements StatefulScheme.
func (s *GatePrune) CloneStateless() Scheme { return &GatePrune{Rho: s.Rho} }

// Forward implements Scheme.
func (s *GatePrune) Forward(_ int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	s.g = tensor.MatVec(mlp.Gate.P.W, x, resize(s.g, mlp.DFF))
	s.score = resize(s.score, mlp.DFF)
	for i, v := range s.g {
		s.score[i] = abs(mlp.Act.Apply(v))
	}
	k := keepCount(s.Rho, mlp.DFF)
	s.idx = tensor.TopKIndicesInto(s.score, k, &s.topk, s.idx)
	s.y = sparseRowsOutput(mlp, x, s.g, s.idx, resize(s.y, mlp.Dim))
	return s.y, rowsAccess(s.idx)
}

// rowsAccess is the access record of the schemes that read W_g densely and
// the units of W_u rows and W_d columns (Gate pruning, CATS).
func rowsAccess(idx []int) TokenAccess {
	var ta TokenAccess
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessSparse, Units: idx}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: idx}
	return ta
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

	u, score, y tensor.Vec
	topk        tensor.TopKScratch
	idx         []int
}

// Name implements Scheme.
func (s *UpPrune) Name() string { return "up" }

// CloneStateless implements StatefulScheme.
func (s *UpPrune) CloneStateless() Scheme { return &UpPrune{Rho: s.Rho} }

// Forward implements Scheme.
func (s *UpPrune) Forward(_ int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	s.u = tensor.MatVec(mlp.Up.P.W, x, resize(s.u, mlp.DFF))
	k := keepCount(s.Rho, mlp.DFF)
	s.score = absScores(s.u, resize(s.score, mlp.DFF))
	s.idx = tensor.TopKIndicesInto(s.score, k, &s.topk, s.idx)
	// u becomes the GLU activation h on the kept units.
	for _, i := range s.idx {
		s.u[i] *= mlp.Act.Apply(mlp.Gate.P.W.Row(i).Dot(x))
	}
	s.y = tensor.MatVecSparse(mlp.Down.P.W, s.u, s.idx, resize(s.y, mlp.Dim))
	var ta TokenAccess
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessSparse, Units: s.idx}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: s.idx}
	return s.y, ta
}

// CATS is contextually-aware thresholding (Lee et al., 2024): like
// GatePrune but with a fixed per-layer threshold on |σ(W_g x)| calibrated
// offline, so the kept count varies per token.
type CATS struct {
	// Thresholds holds one calibrated threshold per layer.
	Thresholds []float32

	g, y tensor.Vec
	idx  []int
}

// Name implements Scheme.
func (s *CATS) Name() string { return "cats" }

// CloneStateless implements StatefulScheme; the calibrated thresholds are
// shared (read-only during Forward).
func (s *CATS) CloneStateless() Scheme { return &CATS{Thresholds: s.Thresholds} }

// Forward implements Scheme.
func (s *CATS) Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	if layer >= len(s.Thresholds) {
		panic(fmt.Sprintf("sparsity: CATS has %d thresholds, layer %d requested", len(s.Thresholds), layer))
	}
	thr := s.Thresholds[layer]
	s.g = tensor.MatVec(mlp.Gate.P.W, x, resize(s.g, mlp.DFF))
	g := s.g
	idx := s.idx[:0]
	best, bestV := 0, float32(-1)
	for i, v := range g {
		a := abs(mlp.Act.Apply(v))
		if a >= thr {
			idx = append(idx, i)
		}
		if a > bestV {
			best, bestV = i, a
		}
	}
	if len(idx) == 0 { // keep at least the strongest unit
		idx = append(idx, best)
	}
	s.idx = idx
	s.y = sparseRowsOutput(mlp, x, g, idx, resize(s.y, mlp.Dim))
	return s.y, rowsAccess(idx)
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
