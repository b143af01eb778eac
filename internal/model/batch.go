package model

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BatchMLPHook replaces the dense MLP for a whole batch of decode steps:
// xs (Dim × B) holds the post-norm MLP inputs of the B sessions and the
// hook must write each session's block output into the matching column of
// out (Dim × B). It is the batched analogue of MLPHook; the sparsity
// package's ForwardBatch provides implementations for every scheme.
type BatchMLPHook func(layer int, xs *tensor.Mat, out *tensor.Mat)

// DecodeBatch is the scratch arena of fused multi-session decode steps: the
// per-slot residual vectors, the gathered batch matrices handed to the
// multi-RHS kernels, and the nn-level scratch. A zero value is ready to
// use; everything is sized lazily and reused across steps, and the decoders'
// KV caches reuse their slots as in the single path, so a StepBatch over
// decoders that have each filled a window allocates nothing.
type DecodeBatch struct {
	x      []tensor.Vec // per-slot residual streams
	buf    tensor.Vec   // per-slot norm staging (serial across slots)
	xn     *tensor.Mat  // Dim × B post-norm gather
	aOut   *tensor.Mat  // Dim × B attention outputs
	mOut   *tensor.Mat  // Dim × B MLP outputs
	nf     *tensor.Mat  // Dim × B final-norm gather
	logits *tensor.Mat  // Vocab × B
	kvs    []*nn.KVCache
	attn   nn.AttnBatchScratch
}

// ensure sizes the arena for a batch of width B over model m.
func (s *DecodeBatch) ensure(m *Model, B int) {
	dim := m.Cfg.Dim
	for len(s.x) < B {
		s.x = append(s.x, tensor.NewVec(dim))
	}
	if len(s.x) > 0 && len(s.x[0]) != dim {
		for b := range s.x {
			s.x[b] = tensor.NewVec(dim)
		}
	}
	s.buf = tensor.Reuse(s.buf, dim)
	s.xn = tensor.ReuseMat(s.xn, dim, B)
	s.aOut = tensor.ReuseMat(s.aOut, dim, B)
	s.mOut = tensor.ReuseMat(s.mOut, dim, B)
	s.nf = tensor.ReuseMat(s.nf, dim, B)
	s.logits = tensor.ReuseMat(s.logits, m.Cfg.Vocab, B)
	s.kvs = s.kvs[:0]
}

// StepBatch consumes one token id per decoder in a single fused pass and
// returns the next-token logits as the columns of a Vocab × B matrix owned
// by the arena (valid until the next StepBatch on the same arena). Each
// decoder keeps its own KV caches and position; the shared work — the
// attention projections and the output head — runs as multi-RHS kernels
// that walk each weight matrix once for the whole batch, and the MLP is
// hook's (sparsity.ForwardBatch fuses the dense one the same way).
//
// The per-decoder MLPHook installed by NewDecoder is NOT consulted: hook is
// required and replaces it for the whole batch. Apart from that
// substitution, StepBatch is bit-identical per column to calling
// decs[b].Step(ids[b]) independently — same KV slots, same accumulation
// orders — which is what makes the serving engine's fused and per-session
// paths interchangeable.
func (m *Model) StepBatch(decs []*Decoder, ids []int, hook BatchMLPHook, s *DecodeBatch) *tensor.Mat {
	B := len(decs)
	if B == 0 || len(ids) != B {
		panic("model: StepBatch batch/ids length mismatch")
	}
	s.ensure(m, B)
	for b, d := range decs {
		if d.m != m {
			panic("model: StepBatch decoder belongs to a different model")
		}
		if d.pos >= m.Cfg.MaxSeq {
			panic("model: decoder exceeded MaxSeq")
		}
		m.Embed.At(ids[b], d.pos, s.x[b])
		d.pos++
	}
	for l, blk := range m.Blocks {
		for b := range decs {
			blk.Norm1.Apply(s.x[b], s.buf)
			s.xn.SetCol(b, s.buf)
		}
		s.kvs = s.kvs[:0]
		for _, d := range decs {
			s.kvs = append(s.kvs, d.caches[l])
		}
		blk.Attn.StepBatch(s.xn, s.kvs, s.aOut, &s.attn)
		for b := range decs {
			s.aOut.AddColTo(b, s.x[b])
			blk.Norm2.Apply(s.x[b], s.buf)
			s.xn.SetCol(b, s.buf)
		}
		hook(l, s.xn, s.mOut)
		for b := range decs {
			s.mOut.AddColTo(b, s.x[b])
		}
	}
	for b := range decs {
		m.NormF.Apply(s.x[b], s.buf)
		s.nf.SetCol(b, s.buf)
	}
	return tensor.MatVecBatch(m.Head.P.W, s.nf, s.logits)
}
