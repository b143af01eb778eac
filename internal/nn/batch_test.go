package nn

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

func batchCols(vecs []tensor.Vec) *tensor.Mat {
	m := tensor.NewMat(len(vecs[0]), len(vecs))
	for b, v := range vecs {
		m.SetCol(b, v)
	}
	return m
}

// ApplyBatch must reproduce ApplyInto bit for bit in every column.
func TestGLUMLPApplyBatchMatchesApplyBitForBit(t *testing.T) {
	rng := tensor.NewRNG(3)
	mlp := NewGLUMLP("m", 24, 72, ActSiLU, rng)
	const B = 5
	xs := make([]tensor.Vec, B)
	for b := range xs {
		xs[b] = tensor.NewVec(24)
		for i := range xs[b] {
			xs[b][i] = rng.NormFloat32()
		}
	}
	var scratch MLPBatchScratch
	out := mlp.ApplyBatch(batchCols(xs), nil, &scratch)
	for b, x := range xs {
		want := mlp.Apply(x)
		for i := range want {
			if out.At(i, b) != want[i] {
				t.Fatalf("ApplyBatch[%d,%d] = %v, Apply %v", i, b, out.At(i, b), want[i])
			}
		}
	}
}

// A fused attention step over B sessions must match B independent Step
// calls bit for bit — outputs and the appended KV entries — across a run
// of steps with diverging per-session histories, for any worker count.
func TestAttentionStepBatchMatchesStepBitForBit(t *testing.T) {
	defer parallel.SetProcs(parallel.Procs())
	for _, procs := range []int{1, 8} {
		parallel.SetProcs(procs)
		rng := tensor.NewRNG(11)
		attn := NewAttention("a", 16, 4, 2, rng)
		const B, steps = 3, 6
		batched := make([]*KVCache, B)
		single := make([]*KVCache, B)
		for b := range batched {
			batched[b] = &KVCache{}
			single[b] = &KVCache{}
		}
		var scratch AttnBatchScratch
		for st := 0; st < steps; st++ {
			xs := make([]tensor.Vec, B)
			for b := range xs {
				xs[b] = tensor.NewVec(16)
				for i := range xs[b] {
					xs[b][i] = rng.NormFloat32()
				}
			}
			out := attn.StepBatch(batchCols(xs), batched, nil, &scratch)
			for b := range xs {
				want := attn.Step(xs[b], single[b], nil, nil)
				for i := range want {
					if out.At(i, b) != want[i] {
						t.Fatalf("procs=%d step %d: StepBatch[%d,%d] = %v, Step %v",
							procs, st, i, b, out.At(i, b), want[i])
					}
				}
				k, wk := batched[b].Ks[st], single[b].Ks[st]
				v, wv := batched[b].Vs[st], single[b].Vs[st]
				for i := range wk {
					if k[i] != wk[i] || v[i] != wv[i] {
						t.Fatalf("procs=%d step %d session %d: KV entry %d diverged", procs, st, b, i)
					}
				}
			}
		}
	}
}
