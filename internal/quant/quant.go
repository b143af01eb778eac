// Package quant implements the quantization baselines of Section 6.3:
// blockwise uniform quantization with GPTQ-style error propagation (BQ:
// Frantar et al., 2022) and vector quantization with k-means codebooks (VQ:
// van Baalen et al., 2024, simplified to 2-d sub-vectors). Both quantize
// the MLP matrices of a model copy in place and report effective
// bytes-per-weight including bookkeeping overheads, which drives the
// memory axis of Figure 9. BQ is a rounding rule run by prune.Sweep, the
// column sweep SparseGPT runs with a masking rule.
package quant

import (
	"math"

	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// quantizeValue rounds x to the nearest level of an asymmetric uniform
// grid defined by (scale, zero, maxq) and returns the dequantized value.
func quantizeValue(x float32, scale, zero float32, maxq int) float32 {
	if scale == 0 {
		return 0
	}
	q := math.Round(float64(x/scale + zero))
	if q < 0 {
		q = 0
	}
	if q > float64(maxq) {
		q = float64(maxq)
	}
	return (float32(q) - zero) * scale
}

// groupParams derives min-max asymmetric scale/zero for a weight slice.
func groupParams(w []float64, maxq int) (scale, zero float32) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range w {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		return 0, 0
	}
	scale = float32((hi - lo) / float64(maxq))
	zero = float32(math.Round(-lo / (hi - lo) * float64(maxq)))
	return scale, zero
}

// RoundPlan is GPTQ's rule at the given bit width: at each block start,
// every row gets a min-max asymmetric scale/zero pair over the block's
// current (error-compensated) weights, and each weight becomes the nearest
// grid level to the value it holds at its turn in the sweep.
func RoundPlan(bits int) prune.Plan {
	maxq := (1 << bits) - 1
	return func(rows [][]float64, _ *tensor.SymMat, b0, b1 int) func(r, j int, x float64) float64 {
		scales := make([]float32, len(rows))
		zeros := make([]float32, len(rows))
		for r, row := range rows {
			scales[r], zeros[r] = groupParams(row[b0:b1], maxq)
		}
		return func(r, _ int, x float64) float64 {
			return float64(quantizeValue(float32(x), scales[r], zeros[r], maxq))
		}
	}
}

// BQBytesPerWeight returns the effective storage per weight: payload bits
// plus fp16 scale and zero per group of prune.BlockSize columns.
func BQBytesPerWeight(bits int) float64 {
	return (float64(bits) + 32.0/prune.BlockSize) / 8
}

const (
	// vqSubDim is the VQ sub-vector length: with b bits per weight the
	// codebook has 2^(b·vqSubDim) entries.
	vqSubDim = 2
	// vqIters is the number of k-means iterations.
	vqIters = 15
	// vqSeed seeds the k-means initialization.
	vqSeed = 7
)

// VQMatrix vector-quantizes w in place at the given bits per weight: rows
// are cut into vqSubDim-length sub-vectors, a k-means codebook is fit over
// all sub-vectors, and each sub-vector is replaced by its nearest centroid.
func VQMatrix(w *tensor.Mat, bits int) {
	const sd = vqSubDim
	k := 1 << (bits * sd)
	// Gather sub-vectors (pad the tail with zeros when cols % sd != 0).
	var subs [][]float32
	for r := 0; r < w.Rows; r++ {
		row := w.Row(r)
		for c := 0; c < len(row); c += sd {
			sub := make([]float32, sd)
			copy(sub, row[c:min(c+sd, len(row))])
			subs = append(subs, sub)
		}
	}
	if len(subs) == 0 {
		return
	}
	cent := kmeans(subs, min(k, len(subs)), vqIters, vqSeed)
	// Replace each sub-vector with its nearest centroid.
	i := 0
	for r := 0; r < w.Rows; r++ {
		row := w.Row(r)
		for c := 0; c < len(row); c += sd {
			best := nearest(subs[i], cent)
			for d := 0; d < sd && c+d < len(row); d++ {
				row[c+d] = cent[best][d]
			}
			i++
		}
	}
	w.Invalidate()
}

func dist2(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i] - b[i])
		s += d * d
	}
	return s
}

func nearest(x []float32, cent [][]float32) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range cent {
		if d := dist2(x, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// kmeans runs Lloyd's algorithm with k-means++-style seeded init.
func kmeans(xs [][]float32, k, iters int, seed uint64) [][]float32 {
	rng := tensor.NewRNG(seed)
	dim := len(xs[0])
	cent := make([][]float32, k)
	// Init: random distinct samples.
	perm := rng.Perm(len(xs))
	for i := 0; i < k; i++ {
		c := make([]float32, dim)
		copy(c, xs[perm[i%len(perm)]])
		cent[i] = c
	}
	assign := make([]int, len(xs))
	for it := 0; it < iters; it++ {
		changed := false
		for i, x := range xs {
			b := nearest(x, cent)
			if b != assign[i] {
				assign[i] = b
				changed = true
			}
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, x := range xs {
			a := assign[i]
			counts[a]++
			for d := 0; d < dim; d++ {
				sums[a][d] += float64(x[d])
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed empty clusters from a random sample.
				copy(cent[c], xs[rng.Intn(len(xs))])
				continue
			}
			for d := 0; d < dim; d++ {
				cent[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	return cent
}

// VQBytesPerWeight returns the effective storage per weight: index bits
// per weight; the shared codebook is amortized to ~0 for realistic matrix
// sizes, plus a per-row fp16 scale would add 16/cols bits — negligible and
// omitted, matching the paper's accounting.
func VQBytesPerWeight(bits int) float64 {
	return float64(bits) / 8
}

// BQModel returns a copy of m with all MLP matrices blockwise-quantized to
// the given bits with GPTQ error propagation on calibration tokens.
func BQModel(m *model.Model, tokens []int, win, bits int) (*model.Model, error) {
	return prune.RewriteMLP(m, tokens, win, RoundPlan(bits))
}

// VQModel returns a copy of m with all MLP matrices vector-quantized.
func VQModel(m *model.Model, bits int) *model.Model {
	clone := m.Clone()
	for _, b := range clone.Blocks {
		for _, p := range b.MLP.Params() {
			VQMatrix(p.W, bits)
		}
	}
	return clone
}
