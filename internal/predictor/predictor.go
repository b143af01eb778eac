// Package predictor implements DejaVu-style sparsity predictors (Liu et
// al., 2023): one small MLP per transformer layer that maps the MLP input
// to per-unit logits, trained with cross-entropy against binary targets —
// the top-10% largest GLU activations for SwiGLU models, or the naturally
// active (non-zero) units for ReLU models. Section 3.3 of the paper shows
// these predictors work on ReLU-fied models and fail on SwiGLU ones; the
// fig6 experiment reproduces that contrast with this implementation.
package predictor

import (
	"math"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Predictor is a two-layer ReLU MLP: dim → hidden → dff logits.
type Predictor struct {
	L1, L2 *nn.Linear
	Hidden int
}

// NewPredictor allocates a predictor for one layer.
func NewPredictor(layer, dim, hidden, dff int, rng *tensor.RNG) *Predictor {
	return &Predictor{
		L1:     nn.NewLinear("pred.l1", hidden, dim, rng),
		L2:     nn.NewLinear("pred.l2", dff, hidden, rng),
		Hidden: hidden,
	}
}

// Params implements nn.Module.
func (p *Predictor) Params() []*nn.Param { return []*nn.Param{p.L1.P, p.L2.P} }

// Score returns the per-unit logits for input x.
func (p *Predictor) Score(x tensor.Vec) tensor.Vec {
	h := tensor.MatVec(p.L1.P.W, x, nil)
	for i, v := range h {
		h[i] = tensor.ReLU(v)
	}
	return tensor.MatVec(p.L2.P.W, h, nil)
}

// trainStep accumulates gradients of the per-unit sigmoid cross-entropy
// against the binary targets and returns the loss.
func (p *Predictor) trainStep(x tensor.Vec, target []bool) float64 {
	h := tensor.MatVec(p.L1.P.W, x, nil)
	hr := h.Clone()
	for i, v := range hr {
		hr[i] = tensor.ReLU(v)
	}
	logits := tensor.MatVec(p.L2.P.W, hr, nil)
	var loss float64
	dlogits := tensor.NewVec(len(logits))
	for i, lg := range logits {
		pi := tensor.Sigmoid(lg)
		y := float32(0)
		if target[i] {
			y = 1
		}
		// Stable BCE: log(1+exp(-|z|)) + max(z,0) − z·y.
		z := float64(lg)
		if z > 0 {
			loss += z - z*float64(y) + logOnePlusExp(-z)
		} else {
			loss += -z*float64(y) + logOnePlusExp(z)
		}
		dlogits[i] = (pi - y) / float32(len(logits))
	}
	tensor.AddOuter(p.L2.P.G, 1, dlogits, hr)
	dh := tensor.MatTVec(p.L2.P.W, dlogits, nil)
	for i := range dh {
		if h[i] <= 0 {
			dh[i] = 0
		}
	}
	tensor.AddOuter(p.L1.P.G, 1, dh, x)
	return loss / float64(len(logits))
}

func logOnePlusExp(z float64) float64 {
	// z ≤ 0 here, so exp(z) ≤ 1 and this is stable.
	return math.Log1p(math.Exp(z))
}

// Set is one predictor per layer plus the target fraction they were
// trained for.
type Set struct {
	Per []*Predictor
	// TopFrac is the positive-target fraction used in training (0.10).
	TopFrac float64
}

// TrainOpts configures predictor training.
type TrainOpts struct {
	// Hidden is the predictor hidden width (the paper uses 1000 units on
	// 4k-wide models; scaled here). Defaults to dim/2.
	Hidden int
	// Epochs over the collected calibration activations (default 8).
	Epochs int
	// MaxTokens bounds calibration MLP evaluations per layer (default 384).
	MaxTokens int
	// LR is the Adam learning rate (default 3e-3).
	LR float32
	// TopFrac is the positive-target fraction (default 0.10).
	TopFrac float64
	Seed    uint64
}

// DefaultTrainOpts mirrors the paper's protocol at reproduction scale.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{Epochs: 8, MaxTokens: 384, LR: 3e-3, TopFrac: 0.10, Seed: 77}
}

// Train fits one predictor per layer on the model's calibration
// activations. Targets are the TopFrac largest |GLU| units per token for
// SwiGLU models; for ReLU models the naturally active units are used.
func Train(m *model.Model, tokens []int, win int, opts TrainOpts) *Set {
	if opts.Hidden == 0 {
		opts.Hidden = m.Cfg.Dim / 2
	}
	if opts.Epochs == 0 {
		opts.Epochs = 8
	}
	if opts.MaxTokens == 0 {
		opts.MaxTokens = 384
	}
	if opts.LR == 0 {
		opts.LR = 3e-3
	}
	if opts.TopFrac == 0 {
		opts.TopFrac = 0.10
	}
	L := len(m.Blocks)
	rng := tensor.NewRNG(opts.Seed)
	// Collect (x, target) pairs per layer.
	type sample struct {
		x      tensor.Vec
		target []bool
	}
	samples := make([][]sample, L)
	count := 0
	scratch := tensor.NewVec(m.Cfg.DFF) // reused |GLU| score buffer
	hook := func(layer int, x tensor.Vec) tensor.Vec {
		mlp := m.Blocks[layer].MLP
		if layer == 0 {
			count++
		}
		if count <= opts.MaxTokens {
			h := mlp.GLU(x, nil)
			var target []bool
			if m.Cfg.Act == nn.ActReLU {
				target = make([]bool, len(h))
				anyActive := false
				for i, v := range h {
					if v != 0 {
						target[i] = true
						anyActive = true
					}
				}
				if !anyActive {
					target = tensor.TopKAbsMask(h, 1, scratch)
				}
			} else {
				k := int(opts.TopFrac*float64(len(h)) + 0.5)
				if k < 1 {
					k = 1
				}
				target = tensor.TopKAbsMask(h, k, scratch)
			}
			samples[layer] = append(samples[layer], sample{x: x.Clone(), target: target})
			return tensor.MatVec(mlp.Down.P.W, h, nil)
		}
		return mlp.Apply(x)
	}
	for start := 0; start+win <= len(tokens) && count < opts.MaxTokens; start += win {
		m.Forward(tokens[start:start+win], hook)
	}
	// Pre-draw every layer's init stream and epoch permutations serially —
	// the exact order the sequential implementation consumed the parent RNG —
	// so per-layer training can fan out across workers while remaining
	// bit-identical to a serial run.
	set := &Set{TopFrac: opts.TopFrac, Per: make([]*Predictor, L)}
	inits := make([]*tensor.RNG, L)
	perms := make([][][]int, L)
	for l := 0; l < L; l++ {
		inits[l] = rng.Split(uint64(l))
		perms[l] = make([][]int, opts.Epochs)
		for ep := 0; ep < opts.Epochs; ep++ {
			perms[l][ep] = rng.Perm(len(samples[l]))
		}
	}
	parallel.For(L, 1, func(lo, hi int) {
		for l := lo; l < hi; l++ {
			p := NewPredictor(l, m.Cfg.Dim, opts.Hidden, m.Cfg.DFF, inits[l])
			opt := nn.NewAdam(opts.LR)
			for ep := 0; ep < opts.Epochs; ep++ {
				for _, i := range perms[l][ep] {
					s := samples[l][i]
					p.trainStep(s.x, s.target)
					opt.Step(p.Params(), 1)
				}
			}
			set.Per[l] = p
		}
	})
	return set
}

// ScoreFunc adapts the set to the sparsity.Predictive interface.
func (s *Set) ScoreFunc() sparsity.ScoreFunc {
	return func(layer int, x tensor.Vec) tensor.Vec {
		return s.Per[layer].Score(x)
	}
}

// ParamCount returns the total predictor weights (the DejaVu memory
// overhead reported in Section 6.2).
func (s *Set) ParamCount() int {
	n := 0
	for _, p := range s.Per {
		n += nn.CountParams(p)
	}
	return n
}

// RecallAtK measures, over evaluation tokens, the mean fraction of the
// true top-K GLU units that the predictor ranks in its own top-K — the
// quantity that determines predictive pruning quality (Figure 6).
func RecallAtK(m *model.Model, s *Set, tokens []int, win int, rho float64, maxTokens int) float64 {
	var total float64
	var n int
	count := 0
	scratch := tensor.NewVec(m.Cfg.DFF)
	hook := func(layer int, x tensor.Vec) tensor.Vec {
		mlp := m.Blocks[layer].MLP
		if layer == 0 {
			count++
		}
		if count <= maxTokens {
			h := mlp.GLU(x, nil)
			k := int(rho*float64(len(h)) + 0.5)
			if k < 1 {
				k = 1
			}
			truth := tensor.TopKAbsMask(h, k, scratch)
			predIdx := tensor.TopKIndices(s.Per[layer].Score(x), k)
			hit := 0
			for _, i := range predIdx {
				if truth[i] {
					hit++
				}
			}
			total += float64(hit) / float64(k)
			n++
			return tensor.MatVec(mlp.Down.P.W, h, nil)
		}
		return mlp.Apply(x)
	}
	for start := 0; start+win <= len(tokens) && count < maxTokens; start += win {
		m.Forward(tokens[start:start+win], hook)
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
