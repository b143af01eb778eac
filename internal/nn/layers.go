package nn

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Linear is a bias-free affine map y = W x, following the LLaMA/Phi
// convention of no biases in transformer blocks.
type Linear struct {
	P *Param
}

// NewLinear returns a Linear with out×in weights initialized to
// N(0, 1/in) scaled — the usual fan-in init.
func NewLinear(name string, out, in int, rng *tensor.RNG) *Linear {
	l := &Linear{P: NewParam(name, out, in)}
	l.P.Init(rng, float32(1/math.Sqrt(float64(in))))
	return l
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.P} }

// Apply computes W x into out (allocated when nil).
func (l *Linear) Apply(x, out tensor.Vec) tensor.Vec {
	return tensor.MatVec(l.P.W, x, out)
}

// Forward maps each vector of the sequence and returns the outputs along
// with the retained inputs needed by Backward. Tokens fan out over the
// worker pool (disjoint output slots, bit-identical to serial).
func (l *Linear) Forward(xs []tensor.Vec) (ys []tensor.Vec, ctx []tensor.Vec) {
	ys = make([]tensor.Vec, len(xs))
	parallel.For(len(xs), tokenGrain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			ys[t] = tensor.MatVec(l.P.W, xs[t], nil)
		}
	})
	return ys, xs
}

// Backward consumes the upstream gradients dys and the ctx from Forward,
// accumulates the weight gradient and returns gradients w.r.t. inputs.
func (l *Linear) Backward(dys []tensor.Vec, ctx []tensor.Vec) []tensor.Vec {
	dxs := make([]tensor.Vec, len(dys))
	for t, dy := range dys {
		tensor.AddOuter(l.P.G, 1, dy, ctx[t])
		dxs[t] = tensor.MatTVec(l.P.W, dy, nil)
	}
	return dxs
}

// Embedding combines a token-embedding table with learned absolute
// positional embeddings. Forward output at position t is Tok[id_t] + Pos[t].
type Embedding struct {
	Tok *Param // vocab × dim
	Pos *Param // maxSeq × dim
}

// NewEmbedding allocates tables for the given vocabulary, maximum sequence
// length and embedding dimension.
func NewEmbedding(vocab, maxSeq, dim int, rng *tensor.RNG) *Embedding {
	e := &Embedding{Tok: NewParam("embed.tok", vocab, dim), Pos: NewParam("embed.pos", maxSeq, dim)}
	e.Tok.Init(rng, 0.08)
	e.Pos.Init(rng, 0.02)
	return e
}

// Params implements Module.
func (e *Embedding) Params() []*Param { return []*Param{e.Tok, e.Pos} }

// Forward embeds the token ids. len(ids) must be ≤ maxSeq.
func (e *Embedding) Forward(ids []int) []tensor.Vec {
	if len(ids) > e.Pos.W.Rows {
		panic("nn: sequence longer than positional table")
	}
	xs := make([]tensor.Vec, len(ids))
	for t, id := range ids {
		xs[t] = e.At(id, t, nil)
	}
	return xs
}

// At writes the embedding of a single (id, position) pair into dst and
// returns it — the incremental decoders' residual stream; nil allocates.
func (e *Embedding) At(id, pos int, dst tensor.Vec) tensor.Vec {
	if dst == nil {
		dst = tensor.NewVec(e.Tok.W.Cols)
	}
	copy(dst, e.Tok.W.Row(id))
	dst.Add(e.Pos.W.Row(pos))
	return dst
}

// Backward scatter-adds the position-wise gradients into both tables.
func (e *Embedding) Backward(dxs []tensor.Vec, ids []int) {
	for t, dx := range dxs {
		e.Tok.G.Row(ids[t]).Add(dx)
		e.Pos.G.Row(t).Add(dx)
	}
}

// RMSNorm normalizes a vector by its root-mean-square and applies a learned
// per-channel gain, as used by LLaMA-family models.
type RMSNorm struct {
	Gain *Param // 1 × dim
	eps  float32
}

// NewRMSNorm returns an RMSNorm over dim channels with gain initialized to 1.
func NewRMSNorm(name string, dim int) *RMSNorm {
	n := &RMSNorm{Gain: NewParam(name, 1, dim), eps: 1e-5}
	n.Gain.W.Row(0).Fill(1)
	return n
}

// Params implements Module.
func (n *RMSNorm) Params() []*Param { return []*Param{n.Gain} }

// Apply normalizes a single vector into out (allocated when nil).
func (n *RMSNorm) Apply(x, out tensor.Vec) tensor.Vec {
	if out == nil {
		out = tensor.NewVec(len(x))
	}
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1 / math.Sqrt(ss/float64(len(x))+float64(n.eps)))
	g := n.Gain.W.Row(0)
	for i, v := range x {
		out[i] = v * inv * g[i]
	}
	return out
}

// rmsCtx retains what RMSNorm.Backward needs per position.
type rmsCtx struct {
	x   tensor.Vec
	inv float32
}

// Forward normalizes the sequence.
func (n *RMSNorm) Forward(xs []tensor.Vec) (ys []tensor.Vec, ctx []rmsCtx) {
	ys = make([]tensor.Vec, len(xs))
	ctx = make([]rmsCtx, len(xs))
	g := n.Gain.W.Row(0)
	for t, x := range xs {
		var ss float64
		for _, v := range x {
			ss += float64(v) * float64(v)
		}
		inv := float32(1 / math.Sqrt(ss/float64(len(x))+float64(n.eps)))
		y := tensor.NewVec(len(x))
		for i, v := range x {
			y[i] = v * inv * g[i]
		}
		ys[t] = y
		ctx[t] = rmsCtx{x: x, inv: inv}
	}
	return ys, ctx
}

// Backward propagates gradients through the normalization.
//
// With x̂ = x·inv and y = g ⊙ x̂:
//
//	dg += dy ⊙ x̂
//	dx  = inv·(g⊙dy) − x·inv³·⟨g⊙dy, x⟩/n
func (n *RMSNorm) Backward(dys []tensor.Vec, ctx []rmsCtx) []tensor.Vec {
	g := n.Gain.W.Row(0)
	gGrad := n.Gain.G.Row(0)
	dxs := make([]tensor.Vec, len(dys))
	for t, dy := range dys {
		x, inv := ctx[t].x, ctx[t].inv
		dim := len(x)
		var dot float64
		for i := range dy {
			gd := g[i] * dy[i]
			dot += float64(gd) * float64(x[i])
			gGrad[i] += dy[i] * x[i] * inv
		}
		coef := float32(dot) * inv * inv * inv / float32(dim)
		dx := tensor.NewVec(dim)
		for i := range dy {
			dx[i] = g[i]*dy[i]*inv - x[i]*coef
		}
		dxs[t] = dx
	}
	return dxs
}
