// Package prune implements the static one-shot pruning baselines of the
// paper's evaluation: SparseGPT (Frantar & Alistarh, 2023) in unstructured
// and semi-structured (N:M) variants, and plain magnitude pruning. Pruned
// models are evaluated densely; their memory advantage is accounted
// separately (1 extra bit per weight for the sparsity mask, following
// Kuzmin et al., 2024).
//
// The OBS column sweep behind SparseGPT is also GPTQ's (quant.BQModel), so
// it lives here once, as Sweep, and each method is a Plan: the rule that
// says what a block of weights becomes.
package prune

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/tensor"
)

// Pattern selects the sparsity structure.
type Pattern int

const (
	// Unstructured prunes the p smallest-saliency weights per block.
	Unstructured Pattern = iota
	// Semi2of4 zeroes 2 weights in every group of 4 (50% sparsity).
	Semi2of4
	// Semi4of8 zeroes 4 weights in every group of 8 (50% sparsity).
	Semi4of8
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Unstructured:
		return "unstructured"
	case Semi2of4:
		return "2:4"
	case Semi4of8:
		return "4:8"
	default:
		return "invalid"
	}
}

const (
	// BlockSize is the sweep's column block: SparseGPT's lazy-update block
	// and GPTQ's scale/zero group.
	BlockSize = 32
	// percDamp scales the Hessian damping λ = percDamp · mean(diag(H)).
	percDamp = 0.01
	// calibTokens is the number of calibration tokens RewriteMLP fits on.
	calibTokens = 256
)

// A Plan decides what one block of columns [b0, b1) becomes. Sweep calls it
// at each block start with the current, error-compensated rows and the
// upper Cholesky factor U of the inverse Hessian; the returned rule maps
// weight (r, j), at its turn in the column order, from the value it then
// holds to the value it becomes.
type Plan func(rows [][]float64, u *tensor.SymMat, b0, b1 int) func(r, j int, x float64) float64

// Sweep rewrites w (out×in, row-major) in place by the OBS column sweep over
// the calibration inputs xs (each of length in). Rows are held in float64;
// columns are visited in order, and the error of every weight the plan
// changes is propagated into the not-yet-visited columns through
// U = chol((2XXᵀ + λI)⁻¹), which is what lets one-shot pruning reach 50%,
// and 3–4-bit rounding, with modest damage.
func Sweep(w *tensor.Mat, xs []tensor.Vec, plan Plan) error {
	n := w.Cols
	h := tensor.NewSymMat(n)
	for _, x := range xs {
		if len(x) != n {
			return fmt.Errorf("prune: calibration input length %d != cols %d", len(x), n)
		}
		h.AddOuterF64(2, x)
	}
	damp := percDamp * h.MeanDiag()
	if damp <= 0 {
		damp = 1e-4
	}
	h.AddDiag(damp)
	hinv, err := h.Inverse()
	if err != nil {
		return fmt.Errorf("prune: hessian inversion: %w", err)
	}
	u, err := hinv.CholUpper()
	if err != nil {
		return fmt.Errorf("prune: cholesky of inverse hessian: %w", err)
	}
	rows := make([][]float64, w.Rows)
	for r := range rows {
		rows[r] = make([]float64, n)
		for j, v := range w.Row(r) {
			rows[r][j] = float64(v)
		}
	}
	for b0 := 0; b0 < n; b0 += BlockSize {
		b1 := min(b0+BlockSize, n)
		rule := plan(rows, u, b0, b1)
		for j := b0; j < b1; j++ {
			d := u.At(j, j)
			for r, row := range rows {
				x := row[j]
				q := rule(r, j, x)
				if q == x {
					continue
				}
				e := (x - q) / d
				row[j] = q
				for k := j + 1; k < n; k++ {
					row[k] -= float64(e * u.At(j, k))
				}
			}
		}
	}
	for r, row := range rows {
		dst := w.Row(r)
		for j, v := range row {
			dst[j] = float32(v)
		}
	}
	w.Invalidate()
	return nil
}

// MaskPlan is SparseGPT's rule: in every row of a block, zero the weights
// of smallest OBS saliency w²/U_jj² — 2 of every 4 (Semi2of4), 4 of every 8
// (Semi4of8), or the sparsity fraction of the block (Unstructured) — and
// leave the rest as the sweep finds them.
func MaskPlan(pattern Pattern, sparsity float64) Plan {
	return func(rows [][]float64, u *tensor.SymMat, b0, b1 int) func(r, j int, x float64) float64 {
		width := b1 - b0
		groupLen, drop := width, int(float64(sparsity*float64(width))+0.5)
		switch pattern {
		case Semi2of4:
			groupLen, drop = 4, 2
		case Semi4of8:
			groupLen, drop = 8, 4
		}
		mask := make([]bool, len(rows)*width) // true = prune
		score := make(tensor.Vec, width)
		for r, row := range rows {
			for j := b0; j < b1; j++ {
				d := u.At(j, j)
				score[j-b0] = float32(-(row[j] * row[j]) / (d * d)) // negate: top-k of negated = smallest saliency
			}
			for g0 := 0; g0 < width; g0 += groupLen {
				group := score[g0:min(g0+groupLen, width)]
				for _, i := range tensor.TopKIndices(group, min(drop, len(group))) {
					mask[r*width+g0+i] = true
				}
			}
		}
		return func(r, j int, x float64) float64 {
			if mask[r*width+j-b0] {
				return 0
			}
			return x
		}
	}
}

// MagnitudeMatrix zeroes the p smallest-magnitude weights of w in place
// (the no-compensation baseline).
func MagnitudeMatrix(w *tensor.Mat, sparsity float64) {
	n := len(w.Data)
	k := int(float64(sparsity*float64(n)) + 0.5)
	score := make(tensor.Vec, n)
	for i, x := range w.Data {
		if x < 0 {
			x = -x
		}
		score[i] = -x
	}
	for _, i := range tensor.TopKIndices(score, k) {
		w.Data[i] = 0
	}
	w.Invalidate()
}

// CalibrationActivations returns, for every layer, the MLP input vectors
// (inputs to W_u/W_g) and the GLU activation vectors (inputs to W_d) of the
// first maxTokens calibration tokens.
func CalibrationActivations(m *model.Model, tokens []int, win, maxTokens int) (mlpIn, gluAct [][]tensor.Vec) {
	mlpIn = model.MLPInputs(m, tokens, win, maxTokens)
	gluAct = make([][]tensor.Vec, len(mlpIn))
	for l, xs := range mlpIn {
		for _, x := range xs {
			gluAct[l] = append(gluAct[l], m.Blocks[l].MLP.GLU(x, nil))
		}
	}
	return mlpIn, gluAct
}

// RewriteMLP returns a copy of m whose MLP matrices are swept by plan on
// m's calibration activations: W_u and W_g on the MLP inputs, W_d on the
// GLU activations. Attention and embeddings are left dense, matching the
// paper's MLP-only compression.
func RewriteMLP(m *model.Model, tokens []int, win int, plan Plan) (*model.Model, error) {
	clone := m.Clone()
	mlpIn, gluAct := CalibrationActivations(m, tokens, win, calibTokens)
	for l, b := range clone.Blocks {
		for _, p := range b.MLP.Params() {
			xs := mlpIn[l]
			if p == b.MLP.Down.P {
				xs = gluAct[l]
			}
			if err := Sweep(p.W, xs, plan); err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
		}
	}
	return clone, nil
}

// SparseGPTModel returns a copy of m whose MLP matrices are pruned with
// SparseGPT to the pattern (at the given sparsity for Unstructured).
func SparseGPTModel(m *model.Model, tokens []int, win int, pattern Pattern, sparsity float64) (*model.Model, error) {
	return RewriteMLP(m, tokens, win, MaskPlan(pattern, sparsity))
}

// MLPSparsity measures the achieved zero fraction across MLP weights.
func MLPSparsity(m *model.Model) float64 {
	var zero, total int
	for _, b := range m.Blocks {
		for _, p := range b.MLP.Params() {
			for _, x := range p.W.Data {
				if x == 0 {
					zero++
				}
				total++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zero) / float64(total)
}

// MaskOverheadBits is the per-weight bookkeeping cost of static sparsity: 1
// bit per weight to record the mask (Kuzmin et al., 2024).
const MaskOverheadBits = 1.0
