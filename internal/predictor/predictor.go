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
			loss += z - float64(z*float64(y)) + logOnePlusExp(-z)
		} else {
			loss += float64(-z*float64(y)) + logOnePlusExp(z)
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

// Set is one predictor per layer.
type Set struct {
	Per []*Predictor
}

// TrainOpts configures predictor training.
type TrainOpts struct {
	// Epochs over the collected calibration activations (default 8).
	Epochs int
	// MaxTokens bounds calibration MLP evaluations per layer (default 384).
	MaxTokens int
}

const (
	trainLR   = 3e-3 // Adam learning rate
	topFrac   = 0.10 // positive-target fraction for SwiGLU models
	trainSeed = 77   // init and epoch-order seed
)

// DefaultTrainOpts mirrors the paper's protocol at reproduction scale.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{Epochs: 8, MaxTokens: 384}
}

// Train fits one predictor per layer on the model's calibration
// activations. Targets are the topFrac largest |GLU| units per token for
// SwiGLU models; for ReLU models the naturally active units are used. The
// hidden width is dim/2 (the paper uses 1000 units on 4k-wide models).
func Train(m *model.Model, tokens []int, win int, opts TrainOpts) *Set {
	ins := model.MLPInputs(m, tokens, win, opts.MaxTokens)
	L := len(ins)
	targets := make([][][]bool, L)
	scratch := tensor.NewVec(m.Cfg.DFF) // reused |GLU| score buffer
	for l, xs := range ins {
		for _, x := range xs {
			targets[l] = append(targets[l], target(m.Blocks[l].MLP.GLU(x, nil), m.Cfg.Act, scratch))
		}
	}
	// Pre-draw every layer's init stream and epoch permutations serially —
	// the exact order the sequential implementation consumed the parent RNG —
	// so per-layer training can fan out across workers while remaining
	// bit-identical to a serial run.
	rng := tensor.NewRNG(trainSeed)
	set := &Set{Per: make([]*Predictor, L)}
	inits := make([]*tensor.RNG, L)
	perms := make([][][]int, L)
	for l := 0; l < L; l++ {
		inits[l] = rng.Split(uint64(l))
		perms[l] = make([][]int, opts.Epochs)
		for ep := 0; ep < opts.Epochs; ep++ {
			perms[l][ep] = rng.Perm(len(ins[l]))
		}
	}
	parallel.For(L, 1, func(lo, hi int) {
		for l := lo; l < hi; l++ {
			p := NewPredictor(l, m.Cfg.Dim, m.Cfg.Dim/2, m.Cfg.DFF, inits[l])
			opt := nn.NewAdam(trainLR)
			for ep := 0; ep < opts.Epochs; ep++ {
				for _, i := range perms[l][ep] {
					p.trainStep(ins[l][i], targets[l][i])
					opt.Step(p.Params(), 1)
				}
			}
			set.Per[l] = p
		}
	})
	return set
}

// target marks the units a predictor should learn to select from the GLU
// activations h: the active units of a ReLU model (the single largest when
// none is), the topFrac largest |h| otherwise.
func target(h tensor.Vec, act nn.Activation, scratch tensor.Vec) []bool {
	if act != nn.ActReLU {
		return tensor.TopKAbsMask(h, max(int(float64(topFrac*float64(len(h)))+0.5), 1), scratch)
	}
	t := make([]bool, len(h))
	anyActive := false
	for i, v := range h {
		if v != 0 {
			t[i] = true
			anyActive = true
		}
	}
	if !anyActive {
		return tensor.TopKAbsMask(h, 1, scratch)
	}
	return t
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
	scratch := tensor.NewVec(m.Cfg.DFF)
	for l, xs := range model.MLPInputs(m, tokens, win, maxTokens) {
		for _, x := range xs {
			h := m.Blocks[l].MLP.GLU(x, nil)
			k := max(int(float64(rho*float64(len(h)))+0.5), 1)
			truth := tensor.TopKAbsMask(h, k, scratch)
			hit := 0
			for _, i := range tensor.TopKIndices(s.Per[l].Score(x), k) {
				if truth[i] {
					hit++
				}
			}
			total += float64(hit) / float64(k)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
