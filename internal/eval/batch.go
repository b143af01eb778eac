package eval

import (
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// BatchArena owns the shared scratch of fused multi-stream stepping: the
// model-level decode arena, the per-slot decoder tables, a dense batch's MLP
// scratch and the column buffers. One arena serves one batch of streams at a
// time (it is not safe for concurrent BatchDecode calls); everything inside
// is sized lazily and reused, and the decoders reuse their KV slots, so
// steady-state batched decode allocates nothing here.
type BatchArena struct {
	db     model.DecodeBatch
	mlp    nn.MLPBatchScratch
	active []*Stream
	decs   []*model.Decoder
	ids    []int
	xcol   tensor.Vec // one column's MLP input
	lcol   tensor.Vec // one column's logits
	dense  bool       // every column is Dense
	m      *model.Model
	hookFn model.BatchMLPHook
}

// ensure sizes the arena tables for a batch of width B.
func (a *BatchArena) ensure(B int) {
	for len(a.decs) < B {
		a.decs = append(a.decs, nil)
		a.ids = append(a.ids, 0)
	}
	if a.hookFn == nil {
		a.hookFn = a.mlpHook
	}
}

// mlpHook is the batched MLP hook: for an all-Dense batch one fused
// GLUMLP.ApplyBatch per layer, then each stream records the Dense access;
// for any other, each stream's own hook in slot order, so that a column is
// marked in an open SubStepView before the next one's masks read it, as
// under Decode.
func (a *BatchArena) mlpHook(layer int, xs *tensor.Mat, out *tensor.Mat) {
	if !a.dense {
		for b, st := range a.active {
			a.xcol = xs.Col(b, tensor.Reuse(a.xcol, xs.Rows))
			out.SetCol(b, st.hook(layer, a.xcol))
		}
		return
	}
	a.m.Blocks[layer].MLP.ApplyBatch(xs, out, &a.mlp)
	ta := sparsity.DenseAccess()
	for _, st := range a.active {
		st.record(layer, &ta)
	}
}

// BatchDecode advances every unfinished stream in sts by one token through
// a single fused decode step — the multi-RHS batched analogue of calling
// Decode on each stream in order, and bit-identical to it: same outputs,
// same CE sums, same pending accesses per stream. Streams must share one
// model; KV caches, window state, scheme state, and (possibly shared)
// caches stay per-stream. Finished streams are skipped, so a draining batch
// shrinks naturally. The caller must Commit every advanced stream before
// its next decode, exactly as with Decode. The streams' schemes are
// distinct instances; stateless values such as Dense{} may repeat (a
// column's unit lists alias its scheme's scratch, see sparsity.Scheme).
//
// It returns the number of streams advanced (0 when every stream is done).
func BatchDecode(sts []*Stream, a *BatchArena) int {
	a.active = a.active[:0]
	for _, st := range sts {
		if !st.Done() {
			a.active = append(a.active, st)
		}
	}
	B := len(a.active)
	if B == 0 {
		return 0
	}
	a.ensure(B)
	m := a.active[0].m
	a.dense = true
	for b, st := range a.active {
		if st.m != m {
			panic("eval: BatchDecode streams must share one model")
		}
		a.decs[b] = st.decoder()
		a.ids[b] = st.tokens[st.pos]
		_, ok := st.s.(sparsity.Dense)
		a.dense = a.dense && ok
	}
	a.m = m
	logits := m.StepBatch(a.decs[:B], a.ids[:B], a.hookFn, &a.db)
	a.lcol = tensor.Reuse(a.lcol, logits.Rows)
	for b, st := range a.active {
		st.score(logits.Col(b, a.lcol))
	}
	return B
}

// BatchStep is BatchDecode, then each advanced stream's commit alone, as its
// Step commits: with private caches, bit-identical to calling Step on each
// stream in order. It returns the number of streams advanced.
func BatchStep(sts []*Stream, a *BatchArena) int {
	n := BatchDecode(sts, a)
	for _, st := range a.active {
		st.commit(st.pending)
	}
	return n
}
