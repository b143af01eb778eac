package nn

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// tokenGrain is the minimum tokens per parallel block in sequence loops: a
// token's MLP/attention work is tens of microseconds at analog scale, so a
// few tokens per block amortize the scheduling cost.
const tokenGrain = 4

// Activation selects the MLP non-linearity σ in GLU(x) = W_u x ⊙ σ(W_g x).
type Activation int

const (
	// ActSiLU is the SwiGLU configuration used by modern LLMs.
	ActSiLU Activation = iota
	// ActReLU is the "ReLU-fied" configuration (TurboSparse-style) that
	// exhibits natural activation sparsity.
	ActReLU
)

// String names the activation.
func (a Activation) String() string {
	if a == ActReLU {
		return "relu"
	}
	return "silu"
}

// Apply evaluates the activation.
func (a Activation) Apply(x float32) float32 {
	if a == ActReLU {
		return tensor.ReLU(x)
	}
	return tensor.SiLU(x)
}

// GLU writes dst[i] = u[i]·σ(g[i]), bit for bit u[i] * a.Apply(g[i]), for
// every i < len(dst), choosing σ once outside the loop. dst may alias u or g.
func (a Activation) GLU(dst, u, g tensor.Vec) {
	u, g = u[:len(dst)], g[:len(dst)]
	if a == ActReLU {
		for i, x := range g {
			dst[i] = u[i] * tensor.ReLU(x)
		}
		return
	}
	for i, x := range g {
		dst[i] = u[i] * tensor.SiLU(x)
	}
}

// Grad evaluates the activation derivative.
func (a Activation) Grad(x float32) float32 {
	if a == ActReLU {
		return tensor.ReLUGrad(x)
	}
	return tensor.SiLUGrad(x)
}

// GLUMLP is the gated MLP block MLP(x) = W_d (W_u x ⊙ σ(W_g x)) of Eq. 1–2.
// The three matrices are exposed because every sparsity scheme in the paper
// is defined directly on their rows/columns.
type GLUMLP struct {
	Up, Gate *Linear // dff × dim
	Down     *Linear // dim × dff
	Act      Activation
	Dim, DFF int
}

// NewGLUMLP allocates the block with fan-in initialization.
func NewGLUMLP(name string, dim, dff int, act Activation, rng *tensor.RNG) *GLUMLP {
	return &GLUMLP{
		Up:   NewLinear(name+".up", dff, dim, rng),
		Gate: NewLinear(name+".gate", dff, dim, rng),
		Down: NewLinear(name+".down", dim, dff, rng),
		Act:  act,
		Dim:  dim,
		DFF:  dff,
	}
}

// Params implements Module.
func (m *GLUMLP) Params() []*Param {
	return []*Param{m.Up.P, m.Gate.P, m.Down.P}
}

// MLPScratch holds the reusable intermediate buffers of one dense GLU-MLP
// evaluation. A zero value is ready to use; buffers are sized lazily on
// first call. One scratch must not be shared across concurrent callers —
// per-worker arenas hand each worker its own.
type MLPScratch struct {
	U, G, H tensor.Vec
}

// GLU computes the intermediate activations W_u x ⊙ σ(W_g x) for a single
// vector into out (allocated when nil). Used by calibration and the
// sparsity oracles.
func (m *GLUMLP) GLU(x, out tensor.Vec) tensor.Vec {
	return m.GLUInto(x, out, nil)
}

// GLUInto is GLU with caller-owned scratch for the two projection buffers,
// eliminating the per-token allocations of the dense hot path. s may be nil.
func (m *GLUMLP) GLUInto(x, out tensor.Vec, s *MLPScratch) tensor.Vec {
	var local MLPScratch
	if s == nil {
		s = &local
	}
	s.U = tensor.MatVec(m.Up.P.W, x, tensor.Reuse(s.U, m.DFF))
	s.G = tensor.MatVec(m.Gate.P.W, x, tensor.Reuse(s.G, m.DFF))
	out = tensor.Reuse(out, m.DFF)
	m.Act.GLU(out, s.U, s.G)
	return out
}

// Apply computes the dense MLP output for a single vector.
func (m *GLUMLP) Apply(x tensor.Vec) tensor.Vec {
	return m.ApplyInto(x, nil, nil)
}

// ApplyInto is Apply with a caller-provided output buffer and scratch;
// either may be nil. With both non-nil the dense forward is allocation-free.
func (m *GLUMLP) ApplyInto(x, out tensor.Vec, s *MLPScratch) tensor.Vec {
	var local MLPScratch
	if s == nil {
		s = &local
	}
	s.H = m.GLUInto(x, tensor.Reuse(s.H, m.DFF), s)
	return tensor.MatVec(m.Down.P.W, s.H, out)
}

// mlpCtx is one token's Backward context: its input and the scratch
// ApplyInto filled with that token's U, G and H.
type mlpCtx struct {
	x tensor.Vec
	MLPScratch
}

// Forward evaluates the block over a sequence: ApplyInto per token, each
// with its own scratch, retained for Backward. Tokens are independent, so
// the loop fans out over the worker pool; outputs are written to disjoint
// slots and results are bit-identical to a serial run.
func (m *GLUMLP) Forward(xs []tensor.Vec) (ys []tensor.Vec, ctx []mlpCtx) {
	ys = make([]tensor.Vec, len(xs))
	ctx = make([]mlpCtx, len(xs))
	parallel.For(len(xs), tokenGrain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			ctx[t].x = xs[t]
			ys[t] = m.ApplyInto(xs[t], nil, &ctx[t].MLPScratch)
		}
	})
	return ys, ctx
}

// Backward accumulates weight gradients and returns input gradients. The
// token loop stays serial so gradients accumulate into the parameters in a
// fixed order (bit-reproducible training); the per-token scratch vectors
// are reused across iterations instead of reallocated.
func (m *GLUMLP) Backward(dys []tensor.Vec, ctx []mlpCtx) []tensor.Vec {
	dxs := make([]tensor.Vec, len(dys))
	dh := tensor.NewVec(m.DFF)
	du := tensor.NewVec(m.DFF)
	dg := tensor.NewVec(m.DFF)
	for t, dy := range dys {
		c := ctx[t]
		// Down projection.
		tensor.AddOuter(m.Down.P.G, 1, dy, c.H)
		dh.Zero()
		tensor.MatTVec(m.Down.P.W, dy, dh)
		// Gate product.
		for i := range dh {
			act := m.Act.Apply(c.G[i])
			du[i] = dh[i] * act
			dg[i] = dh[i] * c.U[i] * m.Act.Grad(c.G[i])
		}
		tensor.AddOuter(m.Up.P.G, 1, du, c.x)
		tensor.AddOuter(m.Gate.P.G, 1, dg, c.x)
		dx := tensor.MatTVec(m.Up.P.W, du, nil)
		tensor.MatTVec(m.Gate.P.W, dg, dx)
		dxs[t] = dx
	}
	return dxs
}

// WeightCount returns the number of scalar weights across the three
// matrices — the denominator of every MLP-density figure.
func (m *GLUMLP) WeightCount() int { return 3 * m.Dim * m.DFF }

// CrossEntropy computes mean token cross-entropy of logits against targets
// and, when dlogits is non-nil, writes ∂loss/∂logits (softmax − onehot,
// scaled by 1/T) into it.
func CrossEntropy(logits []tensor.Vec, targets []int, dlogits []tensor.Vec) float64 {
	if len(logits) != len(targets) {
		panic("nn: CrossEntropy length mismatch")
	}
	var total float64
	scale := float32(1 / float64(len(logits)))
	for t, lg := range logits {
		lse := tensor.LogSumExp(lg)
		total += lse - float64(lg[targets[t]])
		if dlogits != nil {
			p := tensor.Softmax(lg, dlogits[t])
			p[targets[t]] -= 1
			p.Scale(scale)
		}
	}
	return total / float64(len(logits))
}

// Perplexity converts a mean cross-entropy (nats/token) to perplexity.
func Perplexity(meanCE float64) float64 { return math.Exp(meanCE) }
