package tensor

import "fmt"

// Multi-RHS (batched) kernels: each takes B input vectors packed as the
// columns of a Mat and walks every weight row once, accumulating into B
// outputs. The batch layout is column-per-vector — a Mat with Rows equal to
// the vector length and Cols equal to the batch width B, so row j holds the
// B sessions' j-th coordinates contiguously, which is exactly the stride the
// fused inner loops want.
//
// Determinism contract: every output column is produced by the same
// floating-point accumulation order as the corresponding single-RHS kernel,
// so a batched call is bit-for-bit equal to B independent single-RHS calls
// (enforced by TestBatchKernelsMatchSingleRHSBitForBit). Like the single-RHS
// kernels they run on the caller's goroutine; fan-out is the caller's job.

// ReuseMat returns m reshaped to rows × cols, reallocating only when the
// backing array is too small. The Mat analogue of Reuse, plus in-place
// reshape: a batch arena whose width follows a draining batch keeps one
// backing array instead of reallocating on every width change. Contents of
// a reused m are unspecified — callers must overwrite or Zero.
func ReuseMat(m *Mat, rows, cols int) *Mat {
	if m == nil {
		return NewMat(rows, cols)
	}
	if m.Rows == rows && m.Cols == cols {
		return m
	}
	if cap(m.Data) < rows*cols {
		return NewMat(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:rows*cols]
	m.Invalidate()
	return m
}

// Grow returns v truncated or extended to length n, reallocating only when
// the capacity is insufficient. Unlike Reuse it keeps one backing array
// across calls with varying n — the shape of per-step score buffers whose
// length follows a growing KV history. Contents are unspecified.
func Grow(v Vec, n int) Vec { return grow(v, n) }

// grow is the generic reuse-if-capacity-suffices helper behind Grow (and
// the scratch index buffers of TopKIndicesInto).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AddColTo accumulates column j of m into dst (dst[i] += m[i][j]) — the
// batched residual-stream update, reading one strided column without
// materializing it.
func (m *Mat) AddColTo(j int, dst Vec) {
	if len(dst) != m.Rows {
		panic("tensor: Mat.AddColTo dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] += m.Data[i*m.Cols+j]
	}
}

// MatVecBatch computes out = m · xs for all B columns of xs at once. xs is
// m.Cols × B (column b = right-hand side b) and out is m.Rows × B
// (allocated when nil). Each weight row is walked once, accumulating into
// the B outputs in ascending-column order — bit-identical to B MatVec calls.
func MatVecBatch(m *Mat, xs *Mat, out *Mat) *Mat {
	if xs.Rows != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecBatch xs rows %d != cols %d", xs.Rows, m.Cols))
	}
	B := xs.Cols
	if out == nil {
		out = NewMat(m.Rows, B)
	}
	if out.Rows != m.Rows || out.Cols != B {
		panic("tensor: MatVecBatch out shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*B : (i+1)*B]
		// Up to eight accumulators stay in registers across the row walk, so
		// each weight load feeds eight multiply-adds without a store per
		// element; the array-pointer view of the xs row drops the per-element
		// bounds checks. Per output the accumulation is still ascending j —
		// identical to MatVec.
		b := 0
		for ; b+8 <= B; b += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			off := b
			for _, w := range row {
				xr := (*[8]float32)(xs.Data[off : off+8])
				s0 += w * xr[0]
				s1 += w * xr[1]
				s2 += w * xr[2]
				s3 += w * xr[3]
				s4 += w * xr[4]
				s5 += w * xr[5]
				s6 += w * xr[6]
				s7 += w * xr[7]
				off += B
			}
			orow[b], orow[b+1], orow[b+2], orow[b+3] = s0, s1, s2, s3
			orow[b+4], orow[b+5], orow[b+6], orow[b+7] = s4, s5, s6, s7
		}
		for ; b+4 <= B; b += 4 {
			var s0, s1, s2, s3 float32
			off := b
			for _, w := range row {
				xr := (*[4]float32)(xs.Data[off : off+4])
				s0 += w * xr[0]
				s1 += w * xr[1]
				s2 += w * xr[2]
				s3 += w * xr[3]
				off += B
			}
			orow[b], orow[b+1], orow[b+2], orow[b+3] = s0, s1, s2, s3
		}
		for ; b < B; b++ {
			var s float32
			off := b
			for _, w := range row {
				s += w * xs.Data[off]
				off += B
			}
			orow[b] = s
		}
	}
	return out
}

// MatTVecBatch computes out += mᵀ · xs for all B columns at once. xs is
// m.Rows × B and out is m.Cols × B (allocated when nil, NOT zeroed when
// provided — the accumulate form of MatTVec). Per output column the
// contributions arrive in ascending-row order with the same zero-input skip
// as the single-RHS kernel, so results are bit-identical to B MatTVec calls.
func MatTVecBatch(m *Mat, xs *Mat, out *Mat) *Mat {
	if xs.Rows != m.Rows {
		panic("tensor: MatTVecBatch xs rows mismatch")
	}
	B := xs.Cols
	if out == nil {
		out = NewMat(m.Cols, B)
	}
	if out.Rows != m.Cols || out.Cols != B {
		panic("tensor: MatTVecBatch out shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		xrow := xs.Data[i*B : (i+1)*B]
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			orow := out.Data[j*B : (j+1)*B]
			for b, x := range xrow {
				if x == 0 {
					continue
				}
				orow[b] += w * x
			}
		}
	}
	return out
}

// MaskedMatVecColsBatch computes out = m~ · xs where each column b keeps
// only the input coordinates with active[b][j] true — B sessions' W~ x
// products with differing per-session masks, fused into one walk over the
// weight rows. active must hold B masks of length m.Cols. Bit-identical to
// B MaskedMatVecCols calls.
func MaskedMatVecColsBatch(m *Mat, xs *Mat, active [][]bool, out *Mat) *Mat {
	B := xs.Cols
	if xs.Rows != m.Cols || len(active) != B {
		panic("tensor: MaskedMatVecColsBatch dimension mismatch")
	}
	for _, a := range active {
		if len(a) != m.Cols {
			panic("tensor: MaskedMatVecColsBatch mask length mismatch")
		}
	}
	if out == nil {
		out = NewMat(m.Rows, B)
	}
	if out.Rows != m.Rows || out.Cols != B {
		panic("tensor: MaskedMatVecColsBatch out shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*B : (i+1)*B]
		// Register-tile pairs of columns (masks differ per column, so each
		// accumulator keeps its own branch); per output the accumulation is
		// ascending j with the mask skip — identical to MaskedMatVecCols.
		b := 0
		for ; b+2 <= B; b += 2 {
			a0, a1 := active[b], active[b+1]
			var s0, s1 float32
			for j, w := range row {
				base := j*B + b
				if a0[j] {
					s0 += w * xs.Data[base]
				}
				if a1[j] {
					s1 += w * xs.Data[base+1]
				}
			}
			orow[b], orow[b+1] = s0, s1
		}
		for ; b < B; b++ {
			a := active[b]
			var s float32
			for j, w := range row {
				if a[j] {
					s += w * xs.Data[j*B+b]
				}
			}
			orow[b] = s
		}
	}
	return out
}

// SparseBatchScratch holds MatVecSparseBatch's per-column accumulator. A
// zero value is ready; the buffer grows lazily and is reused, so steady-state
// fused decode does not allocate here. One scratch must not be shared across
// concurrent calls.
type SparseBatchScratch struct {
	acc []float32
}

// MatVecSparseBatch computes out = m · xs using, for each column b, only
// the input coordinates listed in idxs[b] — B sessions' sparse products
// with differing per-session unit lists. Each column runs the single-RHS
// kernel (sparseAccum, on m's input-major mirror) into a contiguous
// accumulator that is then scattered into column b. out is overwritten, like
// MatVecSparse; scratch may be nil to allocate internally. Results are
// bit-identical to B MatVecSparse calls.
func MatVecSparseBatch(m *Mat, xs *Mat, idxs [][]int, out *Mat, scratch *SparseBatchScratch) *Mat {
	B := xs.Cols
	if xs.Rows != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecSparseBatch xs rows %d != cols %d", xs.Rows, m.Cols))
	}
	if len(idxs) != B {
		panic("tensor: MatVecSparseBatch idxs length mismatch")
	}
	if out == nil {
		out = NewMat(m.Rows, B)
	}
	if out.Rows != m.Rows || out.Cols != B {
		panic("tensor: MatVecSparseBatch out shape mismatch")
	}
	if scratch == nil {
		scratch = new(SparseBatchScratch)
	}
	scratch.acc = grow(scratch.acc, m.Rows)
	acc, t := scratch.acc, m.inputMajor()
	for b, idx := range idxs {
		clear(acc)
		sparseAccum(t, xs.Data, B, b, idx, acc)
		for i, v := range acc {
			out.Data[i*B+b] = v
		}
	}
	return out
}
