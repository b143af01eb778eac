package sparsity

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Batched scheme evaluation: ForwardBatch computes one MLP layer for B
// concurrent sessions. Only the dense MLP is fused — one walk over W_u, W_g
// and W_d for the whole batch, through nn.GLUMLP.ApplyBatch. Every pruning
// scheme, DIP and DIP-CA included, runs column by column through its own
// Forward, so its algorithm is written once: each session reads a different
// set of weight columns, and a sparse multi-RHS kernel over them costs
// exactly its single-RHS runs (ROADMAP item 3(c)).
//
// Determinism contract: ForwardBatch(column b) is bit-identical to
// schemes[b].Forward on the same input — same output floats, same
// TokenAccess kinds, and the same unit lists in the same order (the order
// feeds both sparse accumulation and cache replacement). Enforced by
// TestForwardBatchMatchesPerSessionForwardBitForBit.

// BatchScratch holds the reusable buffers of ForwardBatch calls: the dense
// path's intermediates and the column gather buffer. A zero value is ready;
// buffers grow lazily and are reused, so steady-state batched decode does
// not allocate here. It owns no unit lists: the TokenAccess.Units of a
// pruned column alias that column's scheme instance (see ForwardBatch).
type BatchScratch struct {
	dense nn.MLPBatchScratch
	xcol  tensor.Vec
}

// ForwardBatch evaluates one MLP layer for the B sessions whose post-norm
// inputs are the columns of xs (dim × B), writing each session's block
// output into the matching column of out (dim × B) and its weight-access
// record into tas[b]. schemes[b] and caches[b] are session b's scheme
// instance and cache view (views may be nil or differ per session).
//
// An all-Dense batch runs nn.GLUMLP.ApplyBatch; every other batch is each
// column's own Forward, in column order.
//
// schemes[b] are distinct instances; stateless values such as Dense{} may
// repeat. tas[b].Units alias schemes[b]'s own scratch and stay valid until
// its next Forward, so two columns backed by one instance would overwrite
// each other's lists before the caller reads them, and callers that defer
// cache commits must copy them (the eval layer's pending buffers do).
func ForwardBatch(layer int, schemes []Scheme, xs *tensor.Mat, mlp *nn.GLUMLP, caches []CacheView, out *tensor.Mat, tas []TokenAccess, s *BatchScratch) {
	B := xs.Cols
	if len(schemes) != B || len(caches) != B || len(tas) != B {
		panic("sparsity: ForwardBatch batch width mismatch")
	}
	if out == nil || out.Rows != mlp.Dim || out.Cols != B {
		panic("sparsity: ForwardBatch out shape mismatch")
	}
	dense := 0
	for _, sc := range schemes {
		if _, ok := sc.(Dense); ok {
			dense++
		}
	}
	if dense == B {
		forwardBatchDense(xs, mlp, out, tas, s)
		return
	}
	for b, sc := range schemes {
		s.xcol = xs.Col(b, tensor.Reuse(s.xcol, mlp.Dim))
		y, ta := sc.Forward(layer, s.xcol, mlp, caches[b])
		out.SetCol(b, y)
		tas[b] = ta
	}
}

// forwardBatchDense is the fused no-pruning path: one ApplyBatch for the
// whole batch, dense access records per session.
func forwardBatchDense(xs *tensor.Mat, mlp *nn.GLUMLP, out *tensor.Mat, tas []TokenAccess, s *BatchScratch) {
	mlp.ApplyBatch(xs, out, &s.dense)
	for b := range tas {
		tas[b] = TokenAccess{}
		tas[b].Groups[GroupUpRows] = GroupAccess{Kind: AccessDense}
		tas[b].Groups[GroupGateRows] = GroupAccess{Kind: AccessDense}
		tas[b].Groups[GroupDown] = GroupAccess{Kind: AccessDense}
	}
}
