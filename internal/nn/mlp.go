package nn

import (
	"math"

	"repro/internal/tensor"
)

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

// MLPRecord is what Backward reads of one token: its input, the scratch
// ApplyInto filled with that token's U, G and H, and the masks of a sparse
// forward: the input columns (In) and GLU units (Units) it kept, ascending,
// each nil for all of them. A masked record's X is zero outside In, its U
// and G are the projections of that X, and its H is zero outside Units.
type MLPRecord struct {
	X tensor.Vec
	MLPScratch
	In, Units []int
}

// KeepOnly zeroes v outside the ascending index list idx; a nil idx keeps
// all of v.
func KeepOnly(v tensor.Vec, idx []int) {
	if idx == nil {
		return
	}
	for i := range v {
		if len(idx) > 0 && idx[0] == i {
			idx = idx[1:]
			continue
		}
		v[i] = 0
	}
}

// Backward accumulates weight gradients from the upstream gradients dys
// of the tokens recs records and returns input gradients. A masked record
// gets the straight-through gradient of its masked forward: the masks are
// constants, dh is zeroed outside its Units and dx outside its In. The
// token loop stays serial so gradients accumulate into the parameters in a
// fixed order (bit-reproducible training); the per-token scratch vectors
// are reused across iterations instead of reallocated.
func (m *GLUMLP) Backward(dys []tensor.Vec, recs []MLPRecord) []tensor.Vec {
	dxs := make([]tensor.Vec, len(dys))
	dh := tensor.NewVec(m.DFF)
	du := tensor.NewVec(m.DFF)
	dg := tensor.NewVec(m.DFF)
	for t, dy := range dys {
		c := &recs[t]
		// Down projection.
		tensor.AddOuter(m.Down.P.G, 1, dy, c.H)
		dh.Zero()
		tensor.MatTVec(m.Down.P.W, dy, dh)
		KeepOnly(dh, c.Units)
		// Gate product.
		for i := range dh {
			act := m.Act.Apply(c.G[i])
			du[i] = dh[i] * act
			dg[i] = dh[i] * c.U[i] * m.Act.Grad(c.G[i])
		}
		tensor.AddOuter(m.Up.P.G, 1, du, c.X)
		tensor.AddOuter(m.Gate.P.G, 1, dg, c.X)
		dx := tensor.MatTVec(m.Up.P.W, du, nil)
		tensor.MatTVec(m.Gate.P.W, dg, dx)
		KeepOnly(dx, c.In)
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
