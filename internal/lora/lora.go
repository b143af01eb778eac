// Package lora implements the lightweight low-rank adapters of Section 4
// (Eq. 9): rank-r matrices A, B added to the up, gate and down projections,
// W' = W + B·A, trained so that the model with the *sparsified* MLP
// recovers the language-modelling loss. Adapters are applied before column
// selection and fused into the base weights afterwards, so inference
// carries no extra memory or compute.
//
// Train fine-tunes them as the paper does (Section 6.1): each iteration is
// one model.TrainStep over a calibration window with the scheme running
// every MLP on the fused weights. The backward is the model's own,
// straight-through on the scheme's masks (nn.GLUMLP.Backward on a masked
// nn.MLPRecord); each fused weight's gradient G folds into its adapter as
// dB = G·Aᵀ and dA = Bᵀ·G, and only the adapters learn.
package lora

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Adapter is one low-rank pair: ΔW = B·A with A (r×in) and B (out×r).
type Adapter struct {
	A, B *nn.Param
}

// NewAdapter allocates an adapter with standard LoRA init: A random, B
// zero, so ΔW = 0 at the start of training.
func NewAdapter(name string, out, in, rank int, rng *tensor.RNG) *Adapter {
	a := &Adapter{A: nn.NewParam(name+".A", rank, in), B: nn.NewParam(name+".B", out, rank)}
	a.A.Init(rng, float32(1/math.Sqrt(float64(in))))
	return a
}

// Params returns the learnable parameters.
func (a *Adapter) Params() []*nn.Param { return []*nn.Param{a.A, a.B} }

// fold adds g, the gradient of the fused weight W + B·A, to the adapter's
// gradients: dB += g·Aᵀ and dA += Bᵀ·g, one row of g at a time.
func (a *Adapter) fold(g *tensor.Mat) {
	z := tensor.NewVec(a.A.W.Rows)
	for i := 0; i < g.Rows; i++ {
		a.B.G.Row(i).Add(tensor.MatVec(a.A.W, g.Row(i), z))
		tensor.AddOuter(a.A.G, 1, a.B.W.Row(i), g.Row(i))
	}
}

// LayerAdapters carries the three adapters of one MLP block. Any of the
// fields may be nil (CATS adapts only up and down, per the paper).
type LayerAdapters struct {
	Up, Gate, Down *Adapter
}

// TrainOpts configures adapter fine-tuning.
type TrainOpts struct {
	// Iterations of Adam, one calibration window each (default 200).
	Iterations int
	// AdaptGate controls whether the gate matrix receives an adapter
	// (true for DIP, false for CATS, following Section 6.1).
	AdaptGate bool
}

const (
	trainLR   = 2e-3 // Adam learning rate
	trainSeed = 55   // adapter init and window-order seed
)

// DefaultTrainOpts returns the settings used by the experiment drivers.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{Iterations: 200, AdaptGate: true}
}

// ErrShortStream is Train's error for a calibration stream too short for
// one window and the token that follows it.
var ErrShortStream = errors.New("lora: calibration stream shorter than one window plus one token")

// Train fits adapters for every layer so the model, with the scheme running
// each MLP on the fused weights W + B·A, predicts the calibration tokens.
// Each iteration refreshes one clone of m with the current adapters, takes
// one TrainStep on a random window of win tokens (resolved by Model.Window)
// with the scheme's masks recorded for the backward, folds the clone's MLP
// weight gradients into the adapters and steps Adam on the adapters alone.
// Adapters have rank dim/8, at least 2 (the paper's 32 at 4k width, scaled).
func Train(m *model.Model, scheme sparsity.Scheme, tokens []int, win int, opts TrainOpts) ([]LayerAdapters, error) {
	win = m.Window(win)
	if len(tokens) < win+1 {
		return nil, fmt.Errorf("%w: %d tokens, window %d", ErrShortStream, len(tokens), win)
	}
	dim, dff, rank := m.Cfg.Dim, m.Cfg.DFF, max(m.Cfg.Dim/8, 2)
	rng := tensor.NewRNG(trainSeed)
	adapters := make([]LayerAdapters, len(m.Blocks))
	var params []*nn.Param
	for l := range adapters {
		r := rng.Split(uint64(l))
		ad := LayerAdapters{
			Up:   NewAdapter(fmt.Sprintf("l%d.up", l), dff, dim, rank, r.Split(1)),
			Down: NewAdapter(fmt.Sprintf("l%d.down", l), dim, dff, rank, r.Split(2)),
		}
		if opts.AdaptGate {
			ad.Gate = NewAdapter(fmt.Sprintf("l%d.gate", l), dff, dim, rank, r.Split(3))
		}
		adapters[l] = ad
	}
	each(adapters, m, m, func(a *Adapter, _, _ *nn.Param) { params = append(params, a.Params()...) })
	fused := m.Clone()
	hook := schemeHook(scheme, fused)
	opt := nn.NewAdam(trainLR)
	for it := 0; it < opts.Iterations; it++ {
		each(adapters, fused, m, func(a *Adapter, dst, base *nn.Param) { applyDelta(dst.W, base.W, a) })
		start := rng.Intn(len(tokens) - win)
		fused.TrainStep(tokens[start:start+win], tokens[start+1:start+win+1], hook)
		each(adapters, fused, m, func(a *Adapter, dst, _ *nn.Param) { a.fold(dst.G) })
		for _, p := range fused.Params() {
			p.ZeroGrad()
		}
		opt.Step(params, 1)
	}
	return adapters, nil
}

// schemeHook returns the TrainHook that runs scheme on m's MLPs and fills
// each token's record with the scheme's masks and the masked input, U, G
// and H that the straight-through backward reads.
func schemeHook(scheme sparsity.Scheme, m *model.Model) model.TrainHook {
	return func(l int, rec *nn.MLPRecord) tensor.Vec {
		mlp := m.Blocks[l].MLP
		y, ta := scheme.Forward(l, rec.X, mlp, nil)
		in, glu := ta.Kept()
		rec.In, rec.Units = slices.Clone(in), slices.Clone(glu) // ta's lists are the scheme's scratch
		nn.KeepOnly(rec.X, rec.In)
		rec.H = mlp.GLUInto(rec.X, nil, &rec.MLPScratch)
		nn.KeepOnly(rec.H, rec.Units)
		return y
	}
}

// each calls f with every adapter of ads and the MLP weight it adapts in
// dst and in base.
func each(ads []LayerAdapters, dst, base *model.Model, f func(a *Adapter, dst, base *nn.Param)) {
	for l, ad := range ads {
		dp, bp := dst.Blocks[l].MLP.Params(), base.Blocks[l].MLP.Params()
		for i, a := range []*Adapter{ad.Up, ad.Gate, ad.Down} {
			if a != nil {
				f(a, dp[i], bp[i])
			}
		}
	}
}

// applyDelta writes base + B·A into dst: row i gains Σ_k B[i,k]·A[k,:],
// k ascending.
func applyDelta(dst, base *tensor.Mat, a *Adapter) {
	copy(dst.Data, base.Data)
	for i := 0; i < dst.Rows; i++ {
		tensor.MatTVec(a.A.W, a.B.W.Row(i), dst.Row(i))
	}
	dst.Invalidate()
}

// Fuse returns a copy of m with every layer's adapters folded into the MLP
// weights (Eq. 9's fusion step). The returned model is evaluated with the
// same sparsity schemes as the original — adapters add no runtime cost.
func Fuse(m *model.Model, adapters []LayerAdapters) (*model.Model, error) {
	if len(adapters) != len(m.Blocks) {
		return nil, fmt.Errorf("lora: %d adapter sets for %d layers", len(adapters), len(m.Blocks))
	}
	clone := m.Clone()
	each(adapters, clone, m, func(a *Adapter, dst, base *nn.Param) { applyDelta(dst.W, base.W, a) })
	return clone, nil
}
