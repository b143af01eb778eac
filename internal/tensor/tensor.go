package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Vec is a dense float32 vector.
type Vec []float32

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Reuse returns v when it already has length n, else a fresh zeroed vector.
// The shared reuse-or-allocate idiom of every scratch buffer in the repo;
// contents of a reused v are unspecified — callers must overwrite or Zero.
func Reuse(v Vec, n int) Vec {
	if len(v) != n {
		return NewVec(n)
	}
	return v
}

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to x.
func (v Vec) Fill(x float32) {
	for i := range v {
		v[i] = x
	}
}

// Add accumulates w into v element-wise. Lengths must match.
func (v Vec) Add(w Vec) {
	if len(v) != len(w) {
		panic("tensor: Vec.Add length mismatch")
	}
	for i := range v {
		v[i] += w[i]
	}
}

// AddScaled accumulates alpha*w into v.
func (v Vec) AddScaled(alpha float32, w Vec) {
	if len(v) != len(w) {
		panic("tensor: Vec.AddScaled length mismatch")
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale multiplies every element of v by alpha.
func (v Vec) Scale(alpha float32) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float32 {
	if len(v) != len(w) {
		panic("tensor: Vec.Dot length mismatch")
	}
	var s float32
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float32 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return float32(math.Sqrt(s))
}

// Sum returns the sum of the elements of v in float64 precision.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Mat is a dense row-major matrix with Rows x Cols elements.
type Mat struct {
	Rows, Cols int
	Data       []float32

	// mirror is the input-major copy (m.T()) the sparse kernels read, built
	// on their first use. Mat's own mutators drop it; code that writes Data
	// directly must call Invalidate afterwards.
	mirror atomic.Pointer[Mat]
}

// NewMat returns a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: NewMat with negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewMatFrom wraps data (length rows*cols) without copying.
func NewMatFrom(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: NewMatFrom data length %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, x float32) {
	m.Data[i*m.Cols+j] = x
	m.Invalidate()
}

// Invalidate drops the input-major mirror so the next sparse product
// rebuilds it from Data. Call it after writing m.Data (or a Row alias)
// directly; Set, SetCol, Zero, RandNorm, AddOuter and ReuseMat do so
// themselves.
func (m *Mat) Invalidate() {
	if m.mirror.Load() != nil {
		m.mirror.Store(nil)
	}
}

// inputMajor returns m's input-major mirror: row j is column j of m, so one
// pruned-input unit is one contiguous run of m.Rows floats. The first call
// builds it; concurrent first calls build identical copies and one is
// published. Every later call spot-checks a few entries against Data, so a
// write that skipped Invalidate fails loudly instead of decoding with stale
// weights.
func (m *Mat) inputMajor() *Mat {
	t := m.mirror.Load()
	if t == nil {
		t = m.T()
		m.mirror.CompareAndSwap(nil, t)
		return t
	}
	stale := t.Rows != m.Cols || t.Cols != m.Rows
	for k, n := 0, len(m.Data); k < 8 && n > 0 && !stale; k++ {
		p := k * (n - 1) / 7
		stale = math.Float32bits(m.Data[p]) != math.Float32bits(t.Data[(p%m.Cols)*m.Rows+p/m.Cols])
	}
	if stale {
		panic("tensor: Mat written without Invalidate")
	}
	return t
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
	m.Invalidate()
}

// Col copies column j into dst (allocating if dst is nil) and returns it.
func (m *Mat) Col(j int, dst Vec) Vec {
	if dst == nil {
		dst = NewVec(m.Rows)
	}
	if len(dst) != m.Rows {
		panic("tensor: Mat.Col dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// SetCol writes src into column j.
func (m *Mat) SetCol(j int, src Vec) {
	if len(src) != m.Rows {
		panic("tensor: Mat.SetCol src length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = src[i]
	}
	m.Invalidate()
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			out.Data[j*m.Rows+i] = x
		}
	}
	return out
}

// RandNorm fills m with N(0, std²) values from rng.
func (m *Mat) RandNorm(rng *RNG, std float32) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32() * std
	}
	m.Invalidate()
}

// MatVec computes out = m · x where x has length m.Cols and out has length
// m.Rows. out is allocated when nil. Each out[i] adds its products in
// ascending j, each rounded to float32 first (no fused multiply-add).
func MatVec(m *Mat, x Vec, out Vec) Vec {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec x length %d != cols %d", len(x), m.Cols))
	}
	if out == nil {
		out = NewVec(m.Rows)
	}
	if len(out) != m.Rows {
		panic("tensor: MatVec out length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float32
		j := 0
		for ; j+4 <= len(row); j += 4 {
			w, v := row[j:j+4:j+4], x[j:j+4:j+4]
			s += float32(w[0] * v[0])
			s += float32(w[1] * v[1])
			s += float32(w[2] * v[2])
			s += float32(w[3] * v[3])
		}
		for ; j < len(row); j++ {
			s += float32(row[j] * x[j])
		}
		out[i] = s
	}
	return out
}

// MatTVec computes out = mᵀ · x where x has length m.Rows and out has
// length m.Cols. out is allocated when nil, and is NOT zeroed when
// provided — callers that reuse buffers must zero first. This accumulate
// form is what backprop needs (dL/dx += Wᵀ dL/dy).
func MatTVec(m *Mat, x Vec, out Vec) Vec {
	if len(x) != m.Rows {
		panic("tensor: MatTVec x length mismatch")
	}
	if out == nil {
		out = NewVec(m.Cols)
	}
	if len(out) != m.Cols {
		panic("tensor: MatTVec out length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			out[j] += w * xi
		}
	}
	return out
}

// AddOuter accumulates alpha * a bᵀ into m, where a has length m.Rows and b
// has length m.Cols. This is the weight-gradient update dW += dy xᵀ.
func AddOuter(m *Mat, alpha float32, a, b Vec) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic("tensor: AddOuter dimension mismatch")
	}
	m.Invalidate()
	for i := 0; i < m.Rows; i++ {
		ai := alpha * a[i]
		if ai == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += ai * b[j]
		}
	}
}

// MatMul returns a·b for a (n×k) and b (k×m).
func MatMul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic("tensor: MatMul inner dimension mismatch")
	}
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MaskedMatVecCols computes out = m~ · x where m~ keeps only the columns j
// with active[j] true (equivalently, skips input coordinates whose column
// was pruned). This is the W~ x product at the heart of every dynamic
// sparsity scheme (Eq. 3 of the paper).
func MaskedMatVecCols(m *Mat, x Vec, active []bool, out Vec) Vec {
	if len(x) != m.Cols || len(active) != m.Cols {
		panic("tensor: MaskedMatVecCols dimension mismatch")
	}
	if out == nil {
		out = NewVec(m.Rows)
	}
	if len(out) != m.Rows {
		panic("tensor: MaskedMatVecCols out length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float32
		for j, w := range row {
			if active[j] {
				s += w * x[j]
			}
		}
		out[i] = s
	}
	return out
}

// MatVecSparse computes out = m · x using only the input coordinates listed
// in idx (x's other coordinates are treated as pruned). idx must be a list
// of valid column indices; duplicates are summed twice and are a caller bug.
// The product reads m's input-major mirror, one contiguous row per listed
// unit, and each out[i] accumulates its terms in idx order with zero inputs
// skipped.
func MatVecSparse(m *Mat, x Vec, idx []int, out Vec) Vec {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecSparse x length %d != cols %d", len(x), m.Cols))
	}
	if out == nil {
		out = NewVec(m.Rows)
	}
	if len(out) != m.Rows {
		panic("tensor: MatVecSparse out length mismatch")
	}
	out.Zero()
	sparseAccum(m.inputMajor(), x, 1, 0, idx, out)
	return out
}

// sparseAccum is the one sparse kernel, shared by MatVecSparse and
// MatVecSparseBatch: acc[i] += Σ t[j][i] · x[j·stride+first] over the
// units j of idx whose input is non-zero, where t is the input-major mirror.
// Four units go through each pass over acc (accum4: SSE2 on amd64, a Go loop
// elsewhere), so acc is loaded and stored once per four contiguous mirror
// rows; within a pass the four terms are added one after another, so every
// acc[i] receives its terms in idx order — the same float32 sequence as a
// unit-at-a-time loop, on every architecture. The up to three units left
// over after the last full pass go one at a time.
func sparseAccum(t *Mat, x []float32, stride, first int, idx []int, acc []float32) {
	if len(acc) == 0 {
		return
	}
	var off [4]int
	var xv [4]float32
	n := 0
	for _, j := range idx {
		v := x[j*stride+first]
		if v == 0 {
			continue
		}
		off[n], xv[n] = j*t.Cols, v
		if n++; n < 4 {
			continue
		}
		n = 0
		accum4(acc, t.Data[off[0]:][:len(acc)], t.Data[off[1]:][:len(acc)],
			t.Data[off[2]:][:len(acc)], t.Data[off[3]:][:len(acc)], xv[0], xv[1], xv[2], xv[3])
	}
	for q := 0; q < n; q++ {
		r, v := t.Data[off[q]:][:len(acc)], xv[q]
		for i := range acc {
			acc[i] += float32(r[i] * v)
		}
	}
}
