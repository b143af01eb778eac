package tensor

import (
	"fmt"
	"math"
)

// SymMat is a dense symmetric matrix in float64, used by the OBS-style
// weight-update machinery (SparseGPT, GPTQ) where float32 accumulation is
// too lossy.
type SymMat struct {
	N    int
	Data []float64
}

// NewSymMat returns a zeroed n×n symmetric matrix.
func NewSymMat(n int) *SymMat {
	return &SymMat{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *SymMat) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *SymMat) Set(i, j int, x float64) { m.Data[i*m.N+j] = x }

// AddOuterF64 accumulates alpha · x xᵀ into m (x as float32 input data).
func (m *SymMat) AddOuterF64(alpha float64, x Vec) {
	if len(x) != m.N {
		panic("tensor: SymMat.AddOuterF64 length mismatch")
	}
	for i := 0; i < m.N; i++ {
		xi := alpha * float64(x[i])
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.N : (i+1)*m.N]
		for j := 0; j < m.N; j++ {
			row[j] += float64(xi * float64(x[j]))
		}
	}
}

// AddDiag adds lambda to every diagonal element.
func (m *SymMat) AddDiag(lambda float64) {
	for i := 0; i < m.N; i++ {
		m.Data[i*m.N+i] += lambda
	}
}

// MeanDiag returns the mean of the diagonal.
func (m *SymMat) MeanDiag() float64 {
	var s float64
	for i := 0; i < m.N; i++ {
		s += m.Data[i*m.N+i]
	}
	return s / float64(m.N)
}

// Cholesky computes the lower-triangular factor L with m = L Lᵀ. It
// returns an error when the matrix is not positive definite.
func (m *SymMat) Cholesky() (*SymMat, error) {
	n := m.N
	l := NewSymMat(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= float64(l.At(i, k) * l.At(j, k))
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("tensor: Cholesky failed at pivot %d (%v)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// Inverse returns m⁻¹ via its Cholesky factorization.
func (m *SymMat) Inverse() (*SymMat, error) {
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	n := m.N
	// Invert L (lower triangular) in place into linv.
	linv := NewSymMat(n)
	for i := 0; i < n; i++ {
		linv.Set(i, i, 1/l.At(i, i))
		for j := 0; j < i; j++ {
			var sum float64
			for k := j; k < i; k++ {
				sum += float64(l.At(i, k) * linv.At(k, j))
			}
			linv.Set(i, j, -sum/l.At(i, i))
		}
	}
	// m⁻¹ = L⁻ᵀ L⁻¹.
	inv := NewSymMat(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var sum float64
			for k := i; k < n; k++ { // linv is lower: linv[k,i], linv[k,j] nonzero for k ≥ max(i,j)
				sum += float64(linv.At(k, i) * linv.At(k, j))
			}
			inv.Set(i, j, sum)
			inv.Set(j, i, sum)
		}
	}
	return inv, nil
}

// CholUpper computes the upper-triangular factor U with m = Uᵀ U, the form
// GPTQ/SparseGPT use for the inverse Hessian (Hinv = Uᵀ U with U upper).
// It is the transpose of the lower Cholesky factor.
func (m *SymMat) CholUpper() (*SymMat, error) {
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	n := m.N
	u := NewSymMat(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			u.Set(j, i, l.At(i, j))
		}
	}
	return u, nil
}
