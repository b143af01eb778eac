// Package lora implements the lightweight low-rank adapters of Section 4
// (Eq. 9): rank-r matrices A, B added to the up, gate and down projections
// so that the *sparsified* MLP with W' = W + B·A matches the dense MLP.
// Adapters are applied before column selection and fused into the base
// weights afterwards, so inference carries no extra memory or compute.
//
// Training difference from the paper: the paper distills end-to-end
// against dense logits; this implementation distills layer-locally — each
// layer's adapters minimize ‖MLP_sparse,W'(x) − MLP_dense,W(x)‖² over
// calibration activations, with the pruning masks treated as constants
// (straight-through). Layer-local reconstruction is the same relaxation
// GPTQ/SparseGPT use and preserves the paper's qualitative result: adapters
// recover a large share of the sparsification loss, with larger gains at
// aggressive sparsity.
package lora

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Adapter is one low-rank pair: ΔW = B·A with A (r×in) and B (out×r).
type Adapter struct {
	A, B *nn.Param
	Rank int
}

// NewAdapter allocates an adapter with standard LoRA init: A random, B
// zero, so ΔW = 0 at the start of training.
func NewAdapter(name string, out, in, rank int, rng *tensor.RNG) *Adapter {
	a := &Adapter{
		A:    nn.NewParam(name+".A", rank, in),
		B:    nn.NewParam(name+".B", out, rank),
		Rank: rank,
	}
	a.A.Init(rng, float32(1/math.Sqrt(float64(in))))
	return a
}

// Params returns the learnable parameters.
func (a *Adapter) Params() []*nn.Param { return []*nn.Param{a.A, a.B} }

// Delta materializes B·A.
func (a *Adapter) Delta() *tensor.Mat {
	return tensor.MatMul(a.B.W, a.A.W)
}

// LayerAdapters carries the three adapters of one MLP block. Any of the
// fields may be nil (CATS adapts only up and down, per the paper).
type LayerAdapters struct {
	Up, Gate, Down *Adapter
}

// TrainOpts configures adapter fine-tuning.
type TrainOpts struct {
	// Iterations of Adam over the calibration samples (default 400).
	Iterations int
	// MaxTokens bounds calibration MLP evaluations per layer (default 256).
	MaxTokens int
	// AdaptGate controls whether the gate matrix receives an adapter
	// (true for DIP, false for CATS, following Section 6.1).
	AdaptGate bool
}

const (
	trainLR   = 2e-3 // Adam learning rate
	trainSeed = 55   // adapter init and sample-order seed
)

// DefaultTrainOpts returns the settings used by the experiment drivers.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{Iterations: 400, MaxTokens: 256, AdaptGate: true}
}

// Train fits adapters for every layer so the scheme's sparse MLP output
// matches the dense output on calibration activations. The scheme is
// evaluated against a temporary fused model each iteration via explicit
// delta application, with masks recomputed per sample (straight-through).
// Adapters have rank dim/8, at least 2 (the paper's 32 at 4k width, scaled).
func Train(m *model.Model, scheme sparsity.Scheme, tokens []int, win int, opts TrainOpts) ([]LayerAdapters, error) {
	rank := max(m.Cfg.Dim/8, 2)
	rng := tensor.NewRNG(trainSeed)
	ins := model.MLPInputs(m, tokens, win, opts.MaxTokens)
	adapters := make([]LayerAdapters, len(ins))
	for l, xs := range ins {
		if len(xs) == 0 {
			return nil, fmt.Errorf("lora: no calibration samples for layer %d", l)
		}
		mlp := m.Blocks[l].MLP
		ys := make([]tensor.Vec, len(xs))
		for i, x := range xs {
			ys[i] = mlp.Apply(x)
		}
		adapters[l] = trainLayer(mlp, scheme, l, xs, ys, rank, opts, rng.Split(uint64(l)))
	}
	return adapters, nil
}

// trainLayer fits one layer's adapters by straight-through gradient descent
// on the masked reconstruction loss.
func trainLayer(mlp *nn.GLUMLP, scheme sparsity.Scheme, layer int, xs, ys []tensor.Vec, rank int, opts TrainOpts, rng *tensor.RNG) LayerAdapters {
	dim, dff := mlp.Dim, mlp.DFF
	ad := LayerAdapters{
		Up:   NewAdapter(fmt.Sprintf("l%d.up", layer), dff, dim, rank, rng.Split(1)),
		Down: NewAdapter(fmt.Sprintf("l%d.down", layer), dim, dff, rank, rng.Split(2)),
	}
	params := append(ad.Up.Params(), ad.Down.Params()...)
	if opts.AdaptGate {
		ad.Gate = NewAdapter(fmt.Sprintf("l%d.gate", layer), dff, dim, rank, rng.Split(3))
		params = append(params, ad.Gate.Params()...)
	}
	opt := nn.NewAdam(trainLR)
	fused := cloneMLP(mlp)
	for it := 0; it < opts.Iterations; it++ {
		i := rng.Intn(len(xs))
		x, yStar := xs[i], ys[i]
		// Refresh the fused weights with the current adapters.
		applyDelta(fused.Up.P.W, mlp.Up.P.W, ad.Up)
		applyDelta(fused.Down.P.W, mlp.Down.P.W, ad.Down)
		if ad.Gate != nil {
			applyDelta(fused.Gate.P.W, mlp.Gate.P.W, ad.Gate)
		} else {
			copy(fused.Gate.P.W.Data, mlp.Gate.P.W.Data)
			fused.Gate.P.W.Invalidate()
		}
		// Masked forward through the scheme on the fused weights.
		y, ta := scheme.Forward(layer, x, fused, nil)
		inIdx, gluIdx := extractMasks(&ta, dim, dff)
		// Straight-through backward with fixed masks.
		dy := tensor.NewVec(dim)
		for j := range dy {
			dy[j] = 2 * (y[j] - yStar[j])
		}
		backwardMasked(fused, ad, x, dy, inIdx, gluIdx)
		opt.Step(params, 1)
	}
	return ad
}

// extractMasks derives the active input-column set (nil = all) and the
// active GLU-unit set from a TokenAccess.
func extractMasks(ta *sparsity.TokenAccess, dim, dff int) (inIdx, gluIdx []int) {
	if g := ta.Groups[sparsity.GroupUpGate]; g.Kind == sparsity.AccessSparse {
		inIdx = g.Units
	}
	switch d := ta.Groups[sparsity.GroupDown]; d.Kind {
	case sparsity.AccessSparse:
		gluIdx = d.Units
	default:
		gluIdx = make([]int, dff)
		for i := range gluIdx {
			gluIdx[i] = i
		}
	}
	return inIdx, gluIdx
}

// backwardMasked accumulates adapter gradients for one sample through the
// masked GLU computation (masks fixed).
func backwardMasked(mlp *nn.GLUMLP, ad LayerAdapters, x, dy tensor.Vec, inIdx, gluIdx []int) {
	dim, dff := mlp.Dim, mlp.DFF
	// Recompute the masked intermediates on the fused weights.
	var u, g tensor.Vec
	if inIdx == nil {
		u = tensor.MatVec(mlp.Up.P.W, x, nil)
		g = tensor.MatVec(mlp.Gate.P.W, x, nil)
	} else {
		u = tensor.MatVecSparse(mlp.Up.P.W, x, inIdx, nil)
		g = tensor.MatVecSparse(mlp.Gate.P.W, x, inIdx, nil)
	}
	h := tensor.NewVec(dff) // u ⊙ σ(g) on the units of gluIdx, 0 elsewhere (below)
	mlp.Act.GLU(h, u, g)
	hMask := make([]bool, dff)
	for _, i := range gluIdx {
		hMask[i] = true
	}
	// xm: input with pruned coordinates zeroed (what W_u/W_g effectively saw).
	xm := x
	if inIdx != nil {
		xm = tensor.NewVec(dim)
		for _, j := range inIdx {
			xm[j] = x[j]
		}
	}
	dh := tensor.MatTVec(mlp.Down.P.W, dy, nil)
	du := tensor.NewVec(dff)
	dg := tensor.NewVec(dff)
	for i := 0; i < dff; i++ {
		if !hMask[i] {
			h[i] = 0
			continue
		}
		act := mlp.Act.Apply(g[i])
		du[i] = dh[i] * act
		dg[i] = dh[i] * u[i] * mlp.Act.Grad(g[i])
	}
	// Down adapter: y = (Wd + Bd Ad) h_masked.
	adapterGrad(ad.Down, dy, h)
	adapterGrad(ad.Up, du, xm)
	if ad.Gate != nil {
		adapterGrad(ad.Gate, dg, xm)
	}
}

// adapterGrad accumulates dA, dB for ΔW = B·A given upstream gradient dout
// (w.r.t. the matrix output) and the matrix input xin:
// dB += dout·(A xin)ᵀ, dA += (Bᵀ dout)·xinᵀ.
func adapterGrad(a *Adapter, dout, xin tensor.Vec) {
	z := tensor.MatVec(a.A.W, xin, nil)
	tensor.AddOuter(a.B.G, 1, dout, z)
	dz := tensor.MatTVec(a.B.W, dout, nil)
	tensor.AddOuter(a.A.G, 1, dz, xin)
}

// applyDelta writes base + B·A into dst.
func applyDelta(dst, base *tensor.Mat, a *Adapter) {
	copy(dst.Data, base.Data)
	// dst += B·A, computed as rank-r outer products.
	r := a.Rank
	for k := 0; k < r; k++ {
		bcol := a.B.W.Col(k, nil)
		arow := a.A.W.Row(k)
		for i := 0; i < dst.Rows; i++ {
			bi := bcol[i]
			if bi == 0 {
				continue
			}
			row := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j := range row {
				row[j] += bi * arow[j]
			}
		}
	}
	dst.Invalidate()
}

func cloneMLP(mlp *nn.GLUMLP) *nn.GLUMLP {
	c := nn.NewGLUMLP("fused", mlp.Dim, mlp.DFF, mlp.Act, tensor.NewRNG(0))
	copy(c.Up.P.W.Data, mlp.Up.P.W.Data)
	copy(c.Gate.P.W.Data, mlp.Gate.P.W.Data)
	copy(c.Down.P.W.Data, mlp.Down.P.W.Data)
	c.Up.P.W.Invalidate()
	c.Gate.P.W.Invalidate()
	c.Down.P.W.Invalidate()
	return c
}

// Fuse returns a copy of m with every layer's adapters folded into the MLP
// weights (Eq. 9's fusion step). The returned model is evaluated with the
// same sparsity schemes as the original — adapters add no runtime cost.
func Fuse(m *model.Model, adapters []LayerAdapters) (*model.Model, error) {
	if len(adapters) != len(m.Blocks) {
		return nil, fmt.Errorf("lora: %d adapter sets for %d layers", len(adapters), len(m.Blocks))
	}
	clone := m.Clone()
	for l, ad := range adapters {
		mlp := clone.Blocks[l].MLP
		if ad.Up != nil {
			applyDelta(mlp.Up.P.W, m.Blocks[l].MLP.Up.P.W, ad.Up)
		}
		if ad.Gate != nil {
			applyDelta(mlp.Gate.P.W, m.Blocks[l].MLP.Gate.P.W, ad.Gate)
		}
		if ad.Down != nil {
			applyDelta(mlp.Down.P.W, m.Blocks[l].MLP.Down.P.W, ad.Down)
		}
	}
	return clone, nil
}
