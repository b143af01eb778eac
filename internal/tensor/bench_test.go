package tensor

import "testing"

// Kernel micro-benchmarks: these are the inner loops of training, sparse
// inference and the simulator; regressions here slow every experiment.

func benchMat(rows, cols int) (*Mat, Vec) {
	rng := NewRNG(1)
	m := NewMat(rows, cols)
	m.RandNorm(rng, 1)
	x := NewVec(cols)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	return m, x
}

func BenchmarkMatVec192x64(b *testing.B) {
	m, x := benchMat(192, 64)
	out := NewVec(192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(m, x, out)
	}
}

func BenchmarkMatVecSparseHalf(b *testing.B) {
	m, x := benchMat(192, 64)
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i * 2
	}
	out := NewVec(192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecSparse(m, x, idx, out)
	}
}

func BenchmarkMatTVec192x64(b *testing.B) {
	m, _ := benchMat(192, 64)
	y := NewVec(192)
	for i := range y {
		y[i] = float32(i%5) - 2
	}
	out := NewVec(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		MatTVec(m, y, out)
	}
}

// benchBatch builds a B-wide multi-RHS batch for the batched kernels.
func benchBatch(rows, cols, B int) (*Mat, *Mat) {
	rng := NewRNG(4)
	m := NewMat(rows, cols)
	m.RandNorm(rng, 1)
	xs := NewMat(cols, B)
	xs.RandNorm(rng, 1)
	return m, xs
}

// BenchmarkMatVecBatch8 is the fused kernel at batch 8; compare against
// BenchmarkMatVecBatch8Unfused, which issues the same work as 8 single-RHS
// calls (the serving engine's unfused tick shape).
func BenchmarkMatVecBatch8(b *testing.B) {
	m, xs := benchBatch(192, 64, 8)
	out := NewMat(192, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecBatch(m, xs, out)
	}
}

func BenchmarkMatVecBatch8Unfused(b *testing.B) {
	m, _ := benchBatch(192, 64, 8)
	cols := make([]Vec, 8)
	outs := make([]Vec, 8)
	rng := NewRNG(5)
	for i := range cols {
		cols[i] = NewVec(64)
		for j := range cols[i] {
			cols[i][j] = rng.NormFloat32()
		}
		outs[i] = NewVec(192)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range cols {
			MatVec(m, cols[c], outs[c])
		}
	}
}

// BenchmarkMatVecSparseBatch8 fuses 8 half-density sparse products with
// differing per-column unit lists — the DIP serving hot path.
func BenchmarkMatVecSparseBatch8(b *testing.B) {
	m, xs := benchBatch(192, 64, 8)
	idxs := make([][]int, 8)
	for bi := range idxs {
		idxs[bi] = make([]int, 32)
		for i := range idxs[bi] {
			idxs[bi][i] = (i*2 + bi) % 64
		}
	}
	out := NewMat(192, 8)
	var scratch SparseBatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecSparseBatch(m, xs, idxs, out, &scratch)
	}
}

// The bandwidth-bound analog's projections at DIP-CA-50's keep counts
// (up 768×256 keeping 166 inputs, down 256×768 keeping 154 GLU units). Each
// iteration takes the next of six distinct matrices — the analog's six MLP
// projections per token — so the weights are not L2-resident between
// iterations the way a single 768 KB matrix would be.
const benchMats = 6

func benchSparseShape(rows, cols, k int) (ms []*Mat, x Vec, idx []int) {
	rng := NewRNG(8)
	for range benchMats {
		m := NewMat(rows, cols)
		m.RandNorm(rng, 1)
		ms = append(ms, m)
	}
	x = NewVec(cols)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	return ms, x, rng.Perm(cols)[:k]
}

func benchMatVecSparse(b *testing.B, rows, cols, k int) {
	ms, x, idx := benchSparseShape(rows, cols, k)
	out := NewVec(rows)
	for _, m := range ms {
		MatVecSparse(m, x, idx, out) // build the mirrors outside the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecSparse(ms[i%benchMats], x, idx, out)
	}
}

func BenchmarkMatVecSparse768x256k166(b *testing.B) { benchMatVecSparse(b, 768, 256, 166) }
func BenchmarkMatVecSparse256x768k154(b *testing.B) { benchMatVecSparse(b, 256, 768, 154) }

func benchMatVecSparseBatch8(b *testing.B, rows, cols, k int) {
	ms, _, _ := benchSparseShape(rows, cols, k)
	rng := NewRNG(9)
	xs := NewMat(cols, 8)
	xs.RandNorm(rng, 1)
	idxs := make([][]int, 8)
	for c := range idxs {
		idxs[c] = rng.Perm(cols)[:k]
	}
	out := NewMat(rows, 8)
	var scratch SparseBatchScratch
	for _, m := range ms {
		MatVecSparseBatch(m, xs, idxs, out, &scratch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecSparseBatch(ms[i%benchMats], xs, idxs, out, &scratch)
	}
}

func BenchmarkMatVecSparseBatch8x768x256k166(b *testing.B) { benchMatVecSparseBatch8(b, 768, 256, 166) }
func BenchmarkMatVecSparseBatch8x256x768k154(b *testing.B) { benchMatVecSparseBatch8(b, 256, 768, 154) }

// BenchmarkMaskedMatVecColsBatch8 is the masked variant with per-column
// masks.
func BenchmarkMaskedMatVecColsBatch8(b *testing.B) {
	m, xs := benchBatch(192, 64, 8)
	masks := make([][]bool, 8)
	for bi := range masks {
		masks[bi] = make([]bool, 64)
		for j := range masks[bi] {
			masks[bi][j] = (j+bi)%2 == 0
		}
	}
	out := NewMat(192, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaskedMatVecColsBatch(m, xs, masks, out)
	}
}

// BenchmarkMatTVecBatch8 is the fused transpose product at batch 8.
func BenchmarkMatTVecBatch8(b *testing.B) {
	m, _ := benchBatch(192, 64, 8)
	xs := NewMat(192, 8)
	xs.RandNorm(NewRNG(6), 1)
	out := NewMat(64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		MatTVecBatch(m, xs, out)
	}
}

func BenchmarkTopK64of192(b *testing.B) {
	rng := NewRNG(2)
	score := NewVec(192)
	for i := range score {
		score[i] = rng.NormFloat32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKIndices(score, 64)
	}
}

func BenchmarkSoftmax39(b *testing.B) {
	rng := NewRNG(3)
	logits := NewVec(39)
	for i := range logits {
		logits[i] = rng.NormFloat32() * 4
	}
	out := NewVec(39)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(logits, out)
	}
}

func BenchmarkAddOuter(b *testing.B) {
	m, x := benchMat(192, 64)
	y := NewVec(192)
	for i := range y {
		y[i] = float32(i%3) - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddOuter(m, 1e-6, y, x)
	}
}
