// Package quant implements the quantization baselines of Section 6.3:
// blockwise uniform quantization with GPTQ-style error propagation (BQ:
// Frantar et al., 2022) and vector quantization with k-means codebooks (VQ:
// van Baalen et al., 2024, simplified to 2-d sub-vectors). Both quantize
// the MLP matrices of a model copy in place and report effective
// bytes-per-weight including bookkeeping overheads, which drives the
// memory axis of Figure 9.
package quant

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// Method identifies a quantizer for reporting.
type Method struct {
	// Kind is "bq" or "vq".
	Kind string
	// Bits per weight for the payload (excluding overheads).
	Bits int
}

// String names the method, e.g. "bq4" or "vq3".
func (m Method) String() string { return fmt.Sprintf("%s%d", m.Kind, m.Bits) }

// BQOpts configures blockwise quantization.
type BQOpts struct {
	Bits int
	// GroupSize is the number of consecutive columns sharing a scale/zero
	// pair (default 32).
	GroupSize int
	// PercDamp scales the Hessian damping (default 0.01).
	PercDamp float64
}

// DefaultBQOpts returns the defaults used in the experiments.
func DefaultBQOpts(bits int) BQOpts { return BQOpts{Bits: bits, GroupSize: 32, PercDamp: 0.01} }

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

// BQMatrix quantizes w in place with GPTQ error propagation using the
// calibration inputs xs: columns are processed in order; the rounding
// error of each column is folded into the remaining columns through the
// inverse-Hessian Cholesky factor, exactly the SparseGPT update with
// "prune" replaced by "round".
func BQMatrix(w *tensor.Mat, xs []tensor.Vec, opts BQOpts) error {
	if opts.GroupSize <= 0 {
		opts.GroupSize = 32
	}
	if opts.PercDamp == 0 {
		opts.PercDamp = 0.01
	}
	n := w.Cols
	maxq := (1 << opts.Bits) - 1
	h := tensor.NewSymMat(n)
	for _, x := range xs {
		if len(x) != n {
			return fmt.Errorf("quant: calibration input length %d != cols %d", len(x), n)
		}
		h.AddOuterF64(2, x)
	}
	damp := opts.PercDamp * h.MeanDiag()
	if damp <= 0 {
		damp = 1e-4
	}
	h.AddDiag(damp)
	hinv, err := h.Inverse()
	if err != nil {
		return fmt.Errorf("quant: hessian inversion: %w", err)
	}
	u, err := hinv.CholUpper()
	if err != nil {
		return fmt.Errorf("quant: cholesky: %w", err)
	}
	rows := w.Rows
	wf := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		wf[r] = make([]float64, n)
		for j := 0; j < n; j++ {
			wf[r][j] = float64(w.At(r, j))
		}
	}
	for g0 := 0; g0 < n; g0 += opts.GroupSize {
		g1 := g0 + opts.GroupSize
		if g1 > n {
			g1 = n
		}
		// Per-row scale/zero over the group's *current* (error-compensated)
		// weights.
		scales := make([]float32, rows)
		zeros := make([]float32, rows)
		for r := 0; r < rows; r++ {
			scales[r], zeros[r] = groupParams(wf[r][g0:g1], maxq)
		}
		for j := g0; j < g1; j++ {
			d := u.At(j, j)
			for r := 0; r < rows; r++ {
				orig := wf[r][j]
				q := float64(quantizeValue(float32(orig), scales[r], zeros[r], maxq))
				errv := (orig - q) / d
				wf[r][j] = q
				for k := j + 1; k < n; k++ {
					wf[r][k] -= errv * u.At(j, k)
				}
			}
		}
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			w.Set(r, j, float32(wf[r][j]))
		}
	}
	return nil
}

// BQBytesPerWeight returns the effective storage per weight: payload bits
// plus fp16 scale and zero per group.
func BQBytesPerWeight(opts BQOpts) float64 {
	group := opts.GroupSize
	if group <= 0 {
		group = 32
	}
	bits := float64(opts.Bits) + 32.0/float64(group)
	return bits / 8
}

// VQOpts configures vector quantization.
type VQOpts struct {
	// Bits is the per-weight budget; with SubDim-sized sub-vectors the
	// codebook has 2^(Bits·SubDim) entries.
	Bits int
	// SubDim is the sub-vector length (default 2).
	SubDim int
	// Iters is the number of k-means iterations (default 15).
	Iters int
	// Seed seeds the k-means initialization.
	Seed uint64
}

// DefaultVQOpts returns the defaults used in the experiments.
func DefaultVQOpts(bits int) VQOpts { return VQOpts{Bits: bits, SubDim: 2, Iters: 15, Seed: 7} }

// VQMatrix vector-quantizes w in place: rows are cut into SubDim-length
// sub-vectors, a k-means codebook is fit over all sub-vectors, and each
// sub-vector is replaced by its nearest centroid.
func VQMatrix(w *tensor.Mat, opts VQOpts) {
	if opts.SubDim <= 0 {
		opts.SubDim = 2
	}
	if opts.Iters <= 0 {
		opts.Iters = 15
	}
	k := 1 << (opts.Bits * opts.SubDim)
	sd := opts.SubDim
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
	if k > len(subs) {
		k = len(subs)
	}
	cent := kmeans(subs, k, opts.Iters, opts.Seed)
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
func VQBytesPerWeight(opts VQOpts) float64 {
	return float64(opts.Bits) / 8
}

// BQModel returns a copy of m with all MLP matrices blockwise-quantized
// using GPTQ error propagation on calibration tokens.
func BQModel(m *model.Model, tokens []int, win int, opts BQOpts) (*model.Model, error) {
	clone := model.New(m.Cfg, 0)
	copyParams(m, clone)
	mlpIn, gluAct := prune.CalibrationActivations(m, tokens, win, 256)
	for l, b := range clone.Blocks {
		if err := BQMatrix(b.MLP.Up.P.W, mlpIn[l], opts); err != nil {
			return nil, fmt.Errorf("layer %d up: %w", l, err)
		}
		if err := BQMatrix(b.MLP.Gate.P.W, mlpIn[l], opts); err != nil {
			return nil, fmt.Errorf("layer %d gate: %w", l, err)
		}
		if err := BQMatrix(b.MLP.Down.P.W, gluAct[l], opts); err != nil {
			return nil, fmt.Errorf("layer %d down: %w", l, err)
		}
	}
	return clone, nil
}

// VQModel returns a copy of m with all MLP matrices vector-quantized.
func VQModel(m *model.Model, opts VQOpts) *model.Model {
	clone := model.New(m.Cfg, 0)
	copyParams(m, clone)
	for _, b := range clone.Blocks {
		VQMatrix(b.MLP.Up.P.W, opts)
		VQMatrix(b.MLP.Gate.P.W, opts)
		VQMatrix(b.MLP.Down.P.W, opts)
	}
	return clone
}

func copyParams(src, dst *model.Model) {
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		copy(dp[i].W.Data, sp[i].W.Data)
		dp[i].W.Invalidate()
	}
}
