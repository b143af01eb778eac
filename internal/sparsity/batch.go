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
// exactly its single-RHS runs (a union-pass batched kernel, one walk over
// the union of the columns' units, measured slower than them).
//
// Determinism contract: ForwardBatch(column b) is bit-identical to
// schemes[b].Forward on the same input — same output floats, same
// TokenAccess kinds, and the same unit lists in the same order (the order
// feeds both sparse accumulation and cache replacement). Enforced by
// TestForwardBatchMatchesPerSessionForwardBitForBit.

// BatchScratch holds the reusable buffers of ForwardBatch calls: the dense
// path's intermediates, the column gather buffer and a Dense column's
// storage. A zero value is ready; buffers grow lazily and are reused, so
// steady-state batched decode does not allocate here. It owns no unit
// lists: the TokenAccess.Units of a pruned column alias that column's
// scheme instance (see ForwardBatch).
type BatchScratch struct {
	dense nn.MLPBatchScratch
	xcol  tensor.Vec
	col   DenseScratch
}

// DenseScratch is the caller-owned storage ForwardColumn gives a Dense
// column: its output and its MLP intermediates. The zero value is ready and
// is one nil pointer; the buffers are allocated on first Dense use, so a
// caller whose schemes are never Dense carries only that word.
type DenseScratch struct{ p *denseBuffers }

type denseBuffers struct {
	out tensor.Vec
	mlp nn.MLPScratch
}

// ForwardColumn evaluates one column: s.Forward, bit for bit, except that a
// Dense scheme computes into ds through GLUMLP.ApplyInto, so it allocates
// nothing after its first call. A Dense output aliases ds until the next
// ForwardColumn with ds; every other scheme's output and unit lists alias
// its own scratch, as Forward's do. Every decode loop steps a column with
// it: the eval stream's MLP hook, eval.Hook and ForwardBatch's per-column
// loop.
func ForwardColumn(layer int, s Scheme, x tensor.Vec, mlp *nn.GLUMLP, cache CacheView, ds *DenseScratch) (tensor.Vec, TokenAccess) {
	if _, ok := s.(Dense); !ok {
		return s.Forward(layer, x, mlp, cache)
	}
	if ds.p == nil {
		ds.p = new(denseBuffers)
	}
	ds.p.out = mlp.ApplyInto(x, tensor.Reuse(ds.p.out, mlp.Dim), &ds.p.mlp)
	return ds.p.out, denseAccess
}

// ForwardBatch evaluates one MLP layer for the B sessions whose post-norm
// inputs are the columns of xs (dim × B), writing each session's block
// output into the matching column of out (dim × B) and its weight-access
// record into tas[b]. schemes[b] and caches[b] are session b's scheme
// instance and cache view (views may be nil or differ per session).
//
// An all-Dense batch runs nn.GLUMLP.ApplyBatch; every other batch is each
// column's ForwardColumn, in column order.
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
		mlp.ApplyBatch(xs, out, &s.dense)
		for b := range tas {
			tas[b] = denseAccess
		}
		return
	}
	for b, sc := range schemes {
		s.xcol = xs.Col(b, tensor.Reuse(s.xcol, mlp.Dim))
		y, ta := ForwardColumn(layer, sc, s.xcol, mlp, caches[b], &s.col)
		out.SetCol(b, y)
		tas[b] = ta
	}
}
