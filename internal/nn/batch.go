package nn

import "repro/internal/tensor"

// Batched (multi-RHS) decode-step entry points: B concurrent sessions step
// through the same weights in one fused pass, walking each projection
// matrix once instead of B times. The batch layout matches internal/tensor:
// column b of every Mat is session b's vector. Every batched method is
// bit-identical per column to its single-vector counterpart (enforced in
// tests) — the fusion changes traversal order over *sessions*, never the
// per-output floating-point accumulation order.

// MLPBatchScratch holds the reusable intermediates of one fused dense
// GLU-MLP evaluation over B sessions. A zero value is ready to use; buffers
// are sized lazily and reused across steps, so steady-state fused decode
// does not allocate here.
type MLPBatchScratch struct {
	U, G *tensor.Mat
}

// ApplyBatch computes the dense MLP output for every column of xs (Dim × B)
// into out (Dim × B, allocated when nil): one fused walk over W_u, W_g, and
// W_d for the whole batch. Bit-identical per column to ApplyInto.
func (m *GLUMLP) ApplyBatch(xs, out *tensor.Mat, s *MLPBatchScratch) *tensor.Mat {
	var local MLPBatchScratch
	if s == nil {
		s = &local
	}
	B := xs.Cols
	s.U = tensor.MatVecBatch(m.Up.P.W, xs, tensor.ReuseMat(s.U, m.DFF, B))
	s.G = tensor.MatVecBatch(m.Gate.P.W, xs, tensor.ReuseMat(s.G, m.DFF, B))
	// H = U ⊙ σ(G), written over U in place (same element order as the
	// single-vector path, so the float32 results are identical).
	m.Act.GLU(s.U.Data, s.U.Data, s.G.Data)
	if out == nil {
		out = tensor.NewMat(m.Dim, B)
	}
	return tensor.MatVecBatch(m.Down.P.W, s.U, out)
}

// AttnBatchScratch holds the attention-step buffers: a batch's fused
// projections, and one session's query, context, score and output vectors,
// which Step uses and StepBatch reuses column by column. A zero value is
// ready to use; buffers grow lazily and are reused across steps.
type AttnBatchScratch struct {
	Q, K, V, Cat        *tensor.Mat
	q, cat, scores, out tensor.Vec
}

// StepBatch runs one incremental attention step for B independent sessions
// sharing the projection weights: xs (Dim × B) holds the post-norm inputs,
// caches[b] is session b's KV history (extended, exactly as Step does),
// and the outputs land in the columns of out (Dim × B, allocated when nil).
// The four projections are fused multi-RHS products; the per-session
// score/softmax/context loops, which read disjoint KV caches, run column by
// column on one set of session buffers. Bit-identical per column to B
// independent Step calls.
func (a *Attention) StepBatch(xs *tensor.Mat, caches []*KVCache, out *tensor.Mat, s *AttnBatchScratch) *tensor.Mat {
	B := xs.Cols
	if len(caches) != B {
		panic("nn: Attention.StepBatch cache count mismatch")
	}
	hd := a.HeadDim
	s.Q = tensor.MatVecBatch(a.Wq.P.W, xs, tensor.ReuseMat(s.Q, a.NHeads*hd, B))
	s.K = tensor.MatVecBatch(a.Wk.P.W, xs, tensor.ReuseMat(s.K, a.NKV*hd, B))
	s.V = tensor.MatVecBatch(a.Wv.P.W, xs, tensor.ReuseMat(s.V, a.NKV*hd, B))
	// Each cache's next slot, reused as in the single path.
	for b, c := range caches {
		k, v := c.push(a.NKV * hd)
		s.K.Col(b, k)
		s.V.Col(b, v)
	}
	s.Cat = tensor.ReuseMat(s.Cat, a.NHeads*hd, B)
	for b, c := range caches {
		s.q = s.Q.Col(b, tensor.Grow(s.q, a.NHeads*hd))
		s.Cat.SetCol(b, s.attend(a, c))
	}
	if out == nil {
		out = tensor.NewMat(a.Dim, B)
	}
	return tensor.MatVecBatch(a.Wo.P.W, s.Cat, out)
}
