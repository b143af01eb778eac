package nn

import (
	"math"

	"repro/internal/tensor"
)

// Attention is causal multi-head self-attention with grouped-query heads:
// NHeads query heads share NKV key/value heads (NHeads % NKV == 0), the GQA
// scheme that makes MLPs dominate the parameter budget in modern LLMs
// (Section 3 of the paper).
type Attention struct {
	Wq, Wk, Wv, Wo *Linear
	Dim            int
	NHeads, NKV    int
	HeadDim        int
	scale          float32
}

// NewAttention allocates the four projections. dim must be divisible by
// nHeads, and nHeads by nKV.
func NewAttention(name string, dim, nHeads, nKV int, rng *tensor.RNG) *Attention {
	if dim%nHeads != 0 {
		panic("nn: dim must be divisible by nHeads")
	}
	if nHeads%nKV != 0 {
		panic("nn: nHeads must be divisible by nKV")
	}
	hd := dim / nHeads
	return &Attention{
		Wq:      NewLinear(name+".wq", nHeads*hd, dim, rng),
		Wk:      NewLinear(name+".wk", nKV*hd, dim, rng),
		Wv:      NewLinear(name+".wv", nKV*hd, dim, rng),
		Wo:      NewLinear(name+".wo", dim, nHeads*hd, rng),
		Dim:     dim,
		NHeads:  nHeads,
		NKV:     nKV,
		HeadDim: hd,
		scale:   float32(1 / math.Sqrt(float64(hd))),
	}
}

// Params implements Module.
func (a *Attention) Params() []*Param {
	return []*Param{a.Wq.P, a.Wk.P, a.Wv.P, a.Wo.P}
}

// AttnRecord is what Backward reads of one position besides the keys and
// values in the KV cache: the input, the query, every head's softmax
// probabilities over the positions so far (head h's at [h·n, (h+1)·n) for
// n = position+1) and the concatenated head contexts.
type AttnRecord struct {
	X, Q, Probs, Cat tensor.Vec
}

// Backward propagates gradients through the positions recs records, whose
// keys and values are cache.Ks and cache.Vs.
func (a *Attention) Backward(dys []tensor.Vec, recs []AttnRecord, cache *KVCache) []tensor.Vec {
	T := len(dys)
	group := a.NHeads / a.NKV
	hd := a.HeadDim
	dqs := make([]tensor.Vec, T)
	dks := make([]tensor.Vec, T)
	dvs := make([]tensor.Vec, T)
	for t := 0; t < T; t++ {
		dqs[t] = tensor.NewVec(a.NHeads * hd)
		dks[t] = tensor.NewVec(a.NKV * hd)
		dvs[t] = tensor.NewVec(a.NKV * hd)
	}
	for t := 0; t < T; t++ {
		dy, r := dys[t], &recs[t]
		tensor.AddOuter(a.Wo.P.G, 1, dy, r.Cat)
		dcat := tensor.MatTVec(a.Wo.P.W, dy, nil)
		for h := 0; h < a.NHeads; h++ {
			g := h / group
			dctx := dcat[h*hd : (h+1)*hd]
			p := r.Probs[h*(t+1) : (h+1)*(t+1)]
			// dp and the softmax Jacobian.
			dp := tensor.NewVec(t + 1)
			var pdot float32
			for s := 0; s <= t; s++ {
				v := cache.Vs[s][g*hd : (g+1)*hd]
				var d float32
				for i := 0; i < hd; i++ {
					d += float32(dctx[i] * v[i])
				}
				dp[s] = d
				pdot += float32(p[s] * d)
				// dv accumulation
				dv := dvs[s][g*hd : (g+1)*hd]
				ps := p[s]
				for i := 0; i < hd; i++ {
					dv[i] += float32(ps * dctx[i])
				}
			}
			q := r.Q[h*hd : (h+1)*hd]
			dq := dqs[t][h*hd : (h+1)*hd]
			for s := 0; s <= t; s++ {
				ds := p[s] * (dp[s] - pdot) * a.scale
				if ds == 0 {
					continue
				}
				k := cache.Ks[s][g*hd : (g+1)*hd]
				dk := dks[s][g*hd : (g+1)*hd]
				for i := 0; i < hd; i++ {
					dq[i] += float32(ds * k[i])
					dk[i] += float32(ds * q[i])
				}
			}
		}
	}
	dxs := make([]tensor.Vec, T)
	for t := 0; t < T; t++ {
		x := recs[t].X
		tensor.AddOuter(a.Wq.P.G, 1, dqs[t], x)
		tensor.AddOuter(a.Wk.P.G, 1, dks[t], x)
		tensor.AddOuter(a.Wv.P.G, 1, dvs[t], x)
		dx := tensor.MatTVec(a.Wq.P.W, dqs[t], nil)
		tensor.MatTVec(a.Wk.P.W, dks[t], dx)
		tensor.MatTVec(a.Wv.P.W, dvs[t], dx)
		dxs[t] = dx
	}
	return dxs
}

// KVCache holds the per-layer key/value history for incremental decoding.
// Truncating it (Ks[:pos], Vs[:pos], as Decoder.Rewind does) keeps the vectors
// beyond the new length in the backing arrays, and the next steps write
// their keys and values into those slots instead of allocating.
type KVCache struct {
	Ks, Vs []tensor.Vec
}

// push extends the history by one position and returns its key and value
// slots, of width n, for the caller to overwrite: the vectors a truncation
// left behind when there are any, fresh ones otherwise.
func (c *KVCache) push(n int) (k, v tensor.Vec) {
	t := len(c.Ks)
	if t < cap(c.Ks) && t < cap(c.Vs) {
		c.Ks, c.Vs = c.Ks[:t+1], c.Vs[:t+1]
	} else {
		c.Ks, c.Vs = append(c.Ks, nil), append(c.Vs, nil)
	}
	c.Ks[t], c.Vs[t] = tensor.Grow(c.Ks[t], n), tensor.Grow(c.Vs[t], n)
	return c.Ks[t], c.Vs[t]
}

// Step runs attention for one new position given the cache, appends the new
// key/value, and returns the attention output. The query, context, score
// and output buffers are s's session buffers — the ones StepBatch reuses
// column by column — so the returned vector is valid until the next Step on
// s; nil allocates. The key and value are written into the cache's next
// slot, which allocates only the first time the history reaches that
// length: once a decoder has filled a window, every later window's steps
// allocate nothing. A non-nil rec is filled, in fresh vectors, with what
// Backward reads of this position; inference passes nil.
func (a *Attention) Step(x tensor.Vec, cache *KVCache, s *AttnBatchScratch, rec *AttnRecord) tensor.Vec {
	var local AttnBatchScratch
	if s == nil {
		s = &local
	}
	s.q = tensor.MatVec(a.Wq.P.W, x, tensor.Grow(s.q, a.NHeads*a.HeadDim))
	k, v := cache.push(a.NKV * a.HeadDim)
	tensor.MatVec(a.Wk.P.W, x, k)
	tensor.MatVec(a.Wv.P.W, x, v)
	var cat tensor.Vec
	if rec == nil {
		cat = s.attend(a, cache)
	} else {
		*rec = AttnRecord{X: x.Clone(), Q: s.q.Clone(), Probs: tensor.NewVec(a.NHeads * len(cache.Ks)), Cat: tensor.NewVec(a.NHeads * a.HeadDim)}
		a.attend(rec.Q, cache, rec.Cat, rec.Probs)
		cat = rec.Cat
	}
	s.out = tensor.MatVec(a.Wo.P.W, cat, tensor.Grow(s.out, a.Dim))
	return s.out
}

// attend runs a's score → softmax → context loop for the query in s.q
// against cache into s.cat, sizing s's context and score buffers first,
// and returns s.cat.
func (s *AttnBatchScratch) attend(a *Attention, cache *KVCache) tensor.Vec {
	s.cat = tensor.Grow(s.cat, a.NHeads*a.HeadDim)
	s.cat.Zero()
	if T := len(cache.Ks); cap(s.scores) < T {
		s.scores = make(tensor.Vec, 2*T) // the history grows by one a step
	}
	a.attend(s.q, cache, s.cat, s.scores[:len(cache.Ks)])
	return s.cat
}

// attend is the per-session score → softmax → context loop of one decode
// step, shared by Step and StepBatch: for each head of the query q it
// scores every cached key, normalises, and accumulates the weighted values
// into that head's slice of cat, which must arrive zeroed. scores holds
// len(cache.Ks) floats, scratch overwritten head by head, or NHeads times
// that, where head h's probabilities stay at [h·len(cache.Ks), …).
func (a *Attention) attend(q tensor.Vec, cache *KVCache, cat, scores tensor.Vec) {
	T := len(cache.Ks)
	stride := 0
	if len(scores) > T {
		stride = T
	}
	group := a.NHeads / a.NKV
	hd := a.HeadDim
	for h := 0; h < a.NHeads; h++ {
		g := h / group
		qh := q[h*hd : (h+1)*hd]
		scores := scores[h*stride : h*stride+T]
		for s := 0; s < T; s++ {
			ks := cache.Ks[s][g*hd : (g+1)*hd]
			var dot float32
			for i := 0; i < hd; i++ {
				dot += float32(qh[i] * ks[i])
			}
			scores[s] = dot * a.scale
		}
		p := tensor.Softmax(scores, scores)
		out := cat[h*hd : (h+1)*hd]
		for s := 0; s < T; s++ {
			vs := cache.Vs[s][g*hd : (g+1)*hd]
			ps := p[s]
			for i := 0; i < hd; i++ {
				out[i] += float32(ps * vs[i])
			}
		}
	}
}
