// Package prune implements the static one-shot pruning baselines of the
// paper's evaluation: SparseGPT (Frantar & Alistarh, 2023) in unstructured
// and semi-structured (N:M) variants, and plain magnitude pruning. Pruned
// models are evaluated densely; their memory advantage is accounted
// separately (1 extra bit per weight for the sparsity mask, following
// Kuzmin et al., 2024).
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

// Opts configures SparseGPT.
type Opts struct {
	// Sparsity is the pruned fraction for Unstructured (N:M patterns fix it
	// at 0.5).
	Sparsity float64
	// BlockSize is the lazy-update column block (default 32).
	BlockSize int
	// PercDamp scales the Hessian damping λ = PercDamp · mean(diag(H)).
	PercDamp float64
}

// DefaultOpts mirrors the reference implementation's defaults.
func DefaultOpts() Opts { return Opts{Sparsity: 0.5, BlockSize: 32, PercDamp: 0.01} }

// SparseGPTMatrix prunes W (out×in, row-major) in place given the
// calibration inputs xs (each of length in). It implements the OBS
// column-sweep: using the upper Cholesky factor U of (XXᵀ + λI)⁻¹, each
// pruned weight's error is propagated into the not-yet-processed columns,
// which is what lets one-shot pruning reach 50% with modest damage.
func SparseGPTMatrix(w *tensor.Mat, xs []tensor.Vec, pattern Pattern, opts Opts) error {
	n := w.Cols
	if opts.BlockSize <= 0 {
		opts.BlockSize = 32
	}
	h := tensor.NewSymMat(n)
	for _, x := range xs {
		if len(x) != n {
			return fmt.Errorf("prune: calibration input length %d != cols %d", len(x), n)
		}
		h.AddOuterF64(2, x)
	}
	damp := opts.PercDamp * h.MeanDiag()
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
	// Work in float64 rows for the update sweep.
	rows := w.Rows
	wf := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		wf[r] = make([]float64, n)
		for j := 0; j < n; j++ {
			wf[r][j] = float64(w.At(r, j))
		}
	}
	groupLen, groupPrune := 0, 0
	switch pattern {
	case Semi2of4:
		groupLen, groupPrune = 4, 2
	case Semi4of8:
		groupLen, groupPrune = 8, 4
	}
	for b0 := 0; b0 < n; b0 += opts.BlockSize {
		b1 := b0 + opts.BlockSize
		if b1 > n {
			b1 = n
		}
		// Select the mask for this block per row.
		masks := make([][]bool, rows) // true = prune
		for r := 0; r < rows; r++ {
			masks[r] = make([]bool, b1-b0)
			score := make(tensor.Vec, b1-b0)
			for j := b0; j < b1; j++ {
				d := u.At(j, j)
				score[j-b0] = float32(-(wf[r][j] * wf[r][j]) / (d * d)) // negate: top-k of negated = smallest saliency
			}
			switch pattern {
			case Unstructured:
				k := int(opts.Sparsity*float64(b1-b0) + 0.5)
				for _, idx := range tensor.TopKIndices(score, k) {
					masks[r][idx] = true
				}
			default:
				for g0 := 0; g0 < b1-b0; g0 += groupLen {
					g1 := g0 + groupLen
					if g1 > b1-b0 {
						g1 = b1 - b0
					}
					sub := score[g0:g1]
					kp := groupPrune
					if kp > len(sub) {
						kp = len(sub)
					}
					for _, idx := range tensor.TopKIndices(sub, kp) {
						masks[r][g0+idx] = true
					}
				}
			}
		}
		// Sweep columns in the block, zeroing masked weights and
		// compensating survivors to the right.
		for j := b0; j < b1; j++ {
			d := u.At(j, j)
			for r := 0; r < rows; r++ {
				if !masks[r][j-b0] {
					continue
				}
				err := wf[r][j] / d
				wf[r][j] = 0
				for k := j + 1; k < n; k++ {
					wf[r][k] -= err * u.At(j, k)
				}
			}
		}
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			w.Set(r, j, float32(wf[r][j]))
		}
	}
	return nil
}

// MagnitudeMatrix zeroes the p smallest-magnitude weights of w in place
// (the no-compensation baseline).
func MagnitudeMatrix(w *tensor.Mat, sparsity float64) {
	n := len(w.Data)
	k := int(sparsity*float64(n) + 0.5)
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

// CalibrationActivations collects, for every layer, the MLP input vectors
// (inputs to W_u/W_g) and the GLU activation vectors (inputs to W_d) over
// the calibration tokens.
func CalibrationActivations(m *model.Model, tokens []int, win, maxTokens int) (mlpIn, gluAct [][]tensor.Vec) {
	L := len(m.Blocks)
	mlpIn = make([][]tensor.Vec, L)
	gluAct = make([][]tensor.Vec, L)
	count := 0
	hook := func(layer int, x tensor.Vec) tensor.Vec {
		mlp := m.Blocks[layer].MLP
		if layer == 0 {
			count++
		}
		if count <= maxTokens {
			h := mlp.GLU(x, nil)
			mlpIn[layer] = append(mlpIn[layer], x.Clone())
			gluAct[layer] = append(gluAct[layer], h)
			return tensor.MatVec(mlp.Down.P.W, h, nil)
		}
		return mlp.Apply(x)
	}
	for start := 0; start+win <= len(tokens) && count < maxTokens; start += win {
		m.Forward(tokens[start:start+win], hook)
	}
	return mlpIn, gluAct
}

// SparseGPTModel returns a copy of m whose MLP matrices are pruned with
// SparseGPT using calibration tokens. Attention and embeddings are left
// dense, matching the paper's MLP-only sparsification.
func SparseGPTModel(m *model.Model, tokens []int, win int, pattern Pattern, opts Opts) (*model.Model, error) {
	clone, err := cloneModel(m)
	if err != nil {
		return nil, err
	}
	mlpIn, gluAct := CalibrationActivations(m, tokens, win, 256)
	for l, b := range clone.Blocks {
		if err := SparseGPTMatrix(b.MLP.Up.P.W, mlpIn[l], pattern, opts); err != nil {
			return nil, fmt.Errorf("layer %d up: %w", l, err)
		}
		if err := SparseGPTMatrix(b.MLP.Gate.P.W, mlpIn[l], pattern, opts); err != nil {
			return nil, fmt.Errorf("layer %d gate: %w", l, err)
		}
		if err := SparseGPTMatrix(b.MLP.Down.P.W, gluAct[l], pattern, opts); err != nil {
			return nil, fmt.Errorf("layer %d down: %w", l, err)
		}
	}
	return clone, nil
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

// cloneModel deep-copies a model by rebuilding it and copying parameters.
func cloneModel(m *model.Model) (*model.Model, error) {
	clone := model.New(m.Cfg, 0)
	src := m.Params()
	dst := clone.Params()
	if len(src) != len(dst) {
		return nil, fmt.Errorf("prune: clone parameter count mismatch")
	}
	for i := range src {
		if src[i].Size() != dst[i].Size() {
			return nil, fmt.Errorf("prune: clone parameter %s size mismatch", src[i].Name)
		}
		copy(dst[i].W.Data, src[i].W.Data)
		dst[i].W.Invalidate()
	}
	return clone, nil
}

// MaskOverheadBits is the per-weight bookkeeping cost of static sparsity: 1
// bit per weight to record the mask (Kuzmin et al., 2024).
const MaskOverheadBits = 1.0
