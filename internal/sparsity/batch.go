package sparsity

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Fused (multi-RHS) scheme evaluation: ForwardBatch computes one MLP layer
// for B concurrent sessions in a single pass, walking each weight matrix
// once for the whole batch instead of once per session. Per-session
// sparsity stays per-session — every column keeps its own scores, masks,
// unit lists, and cache view — only the weight traversal is shared, via the
// tensor package's *Batch kernels with per-column masks/unit lists.
//
// Determinism contract: ForwardBatch(column b) is bit-identical to
// schemes[b].Forward on the same input — same output floats, same
// TokenAccess kinds, and the same unit lists in the same order (the order
// feeds both sparse accumulation and cache replacement). Enforced by
// TestForwardBatchMatchesPerSessionForwardBitForBit.

// BatchScratch holds the reusable buffers of fused ForwardBatch calls. A
// zero value is ready; buffers grow lazily and are reused, so steady-state
// fused decode does not allocate here. The unit lists handed out through
// TokenAccess.Units alias this scratch and stay valid until the next
// ForwardBatch on the same scratch — callers that defer cache commits must
// copy them (the eval layer's pending buffers already do).
type BatchScratch struct {
	u, g, h *tensor.Mat
	dense   nn.MLPBatchScratch
	score   tensor.Vec
	xcol    tensor.Vec
	topk    tensor.TopKScratch
	sparse  tensor.SparseBatchScratch
	idxsA   [][]int
	idxsB   [][]int
	dips    []*DIP
}

// growIdxs sizes a per-column unit-list table to B columns, keeping the
// per-column backing arrays.
func growIdxs(idxs [][]int, B int) [][]int {
	for len(idxs) < B {
		idxs = append(idxs, nil)
	}
	return idxs[:B]
}

// ForwardBatch evaluates one MLP layer for the B sessions whose post-norm
// inputs are the columns of xs (dim × B), writing each session's block
// output into the matching column of out (dim × B) and its weight-access
// record into tas[b]. schemes[b] and caches[b] are session b's scheme
// instance and cache view (views may be nil or differ per session).
//
// The schemes that serve traffic have a fused path: an all-Dense batch runs
// as multi-RHS kernels and an all-DIP one (DIP and DIP-CA) carries per-column
// unit lists through the sparse multi-RHS kernels. Every other batch — mixed
// types, and the single-RHS baselines of the paper's tables (glu, glu-oracle,
// gate, up, cats, dejavu) — is evaluated column by column with the scheme's
// own Forward: still bit-identical, just unfused.
func ForwardBatch(layer int, schemes []Scheme, xs *tensor.Mat, mlp *nn.GLUMLP, caches []CacheView, out *tensor.Mat, tas []TokenAccess, s *BatchScratch) {
	B := xs.Cols
	if len(schemes) != B || len(caches) != B || len(tas) != B {
		panic("sparsity: ForwardBatch batch width mismatch")
	}
	if out == nil || out.Rows != mlp.Dim || out.Cols != B {
		panic("sparsity: ForwardBatch out shape mismatch")
	}
	s.dips = s.dips[:0]
	dense := 0
	for _, sc := range schemes {
		switch sc := sc.(type) {
		case *DIP:
			s.dips = append(s.dips, sc)
		case Dense:
			dense++
		}
	}
	if len(s.dips) == B {
		forwardBatchDIP(layer, s.dips, xs, mlp, caches, out, tas, s)
		return
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

// colAbsScores fills dst with |xs[:, b]|.
func colAbsScores(xs *tensor.Mat, b int, dst tensor.Vec) tensor.Vec {
	B := xs.Cols
	for i := range dst {
		v := xs.Data[i*B+b]
		if v < 0 {
			v = -v
		}
		dst[i] = v
	}
	return dst
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

// forwardBatchDIP fuses Dynamic Input Pruning (and its cache-aware variant)
// across the batch: stages 1 and 3 score each column independently —
// per-session masks, per-session cache views — while stages 2 and the down
// projection run as sparse multi-RHS kernels over the per-column unit
// lists.
func forwardBatchDIP(layer int, dips []*DIP, xs *tensor.Mat, mlp *nn.GLUMLP, caches []CacheView, out *tensor.Mat, tas []TokenAccess, s *BatchScratch) {
	dim, dff := mlp.Dim, mlp.DFF
	B := xs.Cols
	// Stage 1: per-column input pruning.
	s.idxsA = growIdxs(s.idxsA, B)
	for b, d := range dips {
		s.score = colAbsScores(xs, b, tensor.Reuse(s.score, dim))
		d.reweight(s.score, layer, GroupUpGate, caches[b])
		kIn := keepCount(d.RhoIn, dim)
		s.idxsA[b] = tensor.TopKIndicesInto(s.score, kIn, &s.topk, s.idxsA[b])
	}
	// Stage 2: fused approximate GLU over the pruned input columns.
	s.u = tensor.MatVecSparseBatch(mlp.Up.P.W, xs, s.idxsA, tensor.ReuseMat(s.u, dff, B), &s.sparse)
	s.g = tensor.MatVecSparseBatch(mlp.Gate.P.W, xs, s.idxsA, tensor.ReuseMat(s.g, dff, B), &s.sparse)
	s.h = tensor.ReuseMat(s.h, dff, B)
	for i, g := range s.g.Data {
		s.h.Data[i] = s.u.Data[i] * mlp.Act.Apply(g)
	}
	// Stage 3: per-column GLU pruning on the approximate activations.
	s.idxsB = growIdxs(s.idxsB, B)
	for b, d := range dips {
		s.score = colAbsScores(s.h, b, tensor.Reuse(s.score, dff))
		d.reweight(s.score, layer, GroupDown, caches[b])
		kGLU := keepCount(d.RhoGLU, dff)
		s.idxsB[b] = tensor.TopKIndicesInto(s.score, kGLU, &s.topk, s.idxsB[b])
	}
	tensor.MatVecSparseBatch(mlp.Down.P.W, s.h, s.idxsB, out, &s.sparse)
	for b := range tas {
		tas[b] = TokenAccess{}
		tas[b].Groups[GroupUpGate] = GroupAccess{Kind: AccessSparse, Units: s.idxsA[b]}
		tas[b].Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: s.idxsB[b]}
	}
}
