package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/prune"
	"repro/internal/tensor"
)

// The two kernels prune.Sweep replaced, kept as its oracles: SparseGPT's
// and GPTQ's column sweeps as each package wrote its own, with the block
// size (32) and damping (0.01) every caller passed. They live here because
// this package sees both plans.

// refSparseGPT is the pre-Sweep SparseGPT kernel.
func refSparseGPT(w *tensor.Mat, xs []tensor.Vec, pattern prune.Pattern, sparsity float64) error {
	const blockSize, percDamp = 32, 0.01
	n := w.Cols
	h := tensor.NewSymMat(n)
	for _, x := range xs {
		if len(x) != n {
			return fmt.Errorf("prune: calibration input length %d != cols %d", len(x), n)
		}
		h.AddOuterF64(2, x)
	}
	damp := percDamp * h.MeanDiag()
	if damp <= 0 {
		damp = 1e-4
	}
	h.AddDiag(damp)
	hinv, err := h.Inverse()
	if err != nil {
		return fmt.Errorf("prune: hessian inversion: %w", err)
	}
	u, err := hinv.CholUpper()
	if err != nil {
		return fmt.Errorf("prune: cholesky of inverse hessian: %w", err)
	}
	rows := w.Rows
	wf := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		wf[r] = make([]float64, n)
		for j := 0; j < n; j++ {
			wf[r][j] = float64(w.At(r, j))
		}
	}
	groupLen, groupPrune := 0, 0
	switch pattern {
	case prune.Semi2of4:
		groupLen, groupPrune = 4, 2
	case prune.Semi4of8:
		groupLen, groupPrune = 8, 4
	}
	for b0 := 0; b0 < n; b0 += blockSize {
		b1 := b0 + blockSize
		if b1 > n {
			b1 = n
		}
		masks := make([][]bool, rows) // true = prune
		for r := 0; r < rows; r++ {
			masks[r] = make([]bool, b1-b0)
			score := make(tensor.Vec, b1-b0)
			for j := b0; j < b1; j++ {
				d := u.At(j, j)
				score[j-b0] = float32(-(wf[r][j] * wf[r][j]) / (d * d))
			}
			switch pattern {
			case prune.Unstructured:
				k := int(sparsity*float64(b1-b0) + 0.5)
				for _, idx := range tensor.TopKIndices(score, k) {
					masks[r][idx] = true
				}
			default:
				for g0 := 0; g0 < b1-b0; g0 += groupLen {
					g1 := g0 + groupLen
					if g1 > b1-b0 {
						g1 = b1 - b0
					}
					sub := score[g0:g1]
					kp := groupPrune
					if kp > len(sub) {
						kp = len(sub)
					}
					for _, idx := range tensor.TopKIndices(sub, kp) {
						masks[r][g0+idx] = true
					}
				}
			}
		}
		for j := b0; j < b1; j++ {
			d := u.At(j, j)
			for r := 0; r < rows; r++ {
				if !masks[r][j-b0] {
					continue
				}
				err := wf[r][j] / d
				wf[r][j] = 0
				for k := j + 1; k < n; k++ {
					wf[r][k] -= err * u.At(j, k)
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

// refGPTQ is the pre-Sweep BQ kernel.
func refGPTQ(w *tensor.Mat, xs []tensor.Vec, bits int) error {
	const groupSize, percDamp = 32, 0.01
	n := w.Cols
	maxq := (1 << bits) - 1
	h := tensor.NewSymMat(n)
	for _, x := range xs {
		if len(x) != n {
			return fmt.Errorf("quant: calibration input length %d != cols %d", len(x), n)
		}
		h.AddOuterF64(2, x)
	}
	damp := percDamp * h.MeanDiag()
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
	for g0 := 0; g0 < n; g0 += groupSize {
		g1 := g0 + groupSize
		if g1 > n {
			g1 = n
		}
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

// method is one sweep under test: a bit width (2–8) for GPTQ, or a
// SparseGPT pattern and sparsity when bits is 0.
type method struct {
	bits     int
	pattern  prune.Pattern
	sparsity float64
}

func (m method) String() string {
	if m.bits > 0 {
		return fmt.Sprintf("bq%d", m.bits)
	}
	return fmt.Sprintf("sparsegpt-%v@%.2f", m.pattern, m.sparsity)
}

// checkSweep runs method on a copy of w through prune.Sweep and through its
// reference kernel and fails unless both error or both produce the same
// float32 bits.
func checkSweep(t *testing.T, w *tensor.Mat, xs []tensor.Vec, m method) {
	t.Helper()
	got, want := w.Clone(), w.Clone()
	var errGot, errWant error
	if m.bits > 0 {
		errGot, errWant = prune.Sweep(got, xs, RoundPlan(m.bits)), refGPTQ(want, xs, m.bits)
	} else {
		errGot, errWant = prune.Sweep(got, xs, prune.MaskPlan(m.pattern, m.sparsity)), refSparseGPT(want, xs, m.pattern, m.sparsity)
	}
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%v on %d×%d: Sweep error %v, reference error %v", m, w.Rows, w.Cols, errGot, errWant)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%v on %d×%d: weight %d is %v, reference %v", m, w.Rows, w.Cols, i, got.Data[i], want.Data[i])
		}
	}
}

func TestSweepMatchesReferenceKernels(t *testing.T) {
	var methods []method
	for bits := 2; bits <= 8; bits++ {
		methods = append(methods, method{bits: bits})
	}
	for _, s := range []float64{0.25, 0.5, 0.7} {
		methods = append(methods, method{pattern: prune.Unstructured, sparsity: s})
	}
	methods = append(methods, method{pattern: prune.Semi2of4}, method{pattern: prune.Semi4of8})
	for i, shape := range [][2]int{{3, 7}, {4, 32}, {5, 45}, {6, 64}, {2, 99}} {
		rng := tensor.NewRNG(uint64(100 + i))
		w := tensor.NewMat(shape[0], shape[1])
		w.RandNorm(rng, 1)
		xs := calib(uint64(200+i), 3*shape[1]/2, shape[1])
		for _, m := range methods {
			checkSweep(t, w, xs, m)
		}
	}
}

// FuzzSweep decodes bytes into a matrix, calibration inputs and one method
// and holds prune.Sweep to that method's reference kernel bit for bit. The
// header picks the shape (up to 6×72, so blocks end short of 32), the method
// (GPTQ at 2–8 bits or a SparseGPT pattern), the unstructured sparsity and
// the sample count; each later byte overwrites one weight with int8/16, so
// exact zeros, ties and on-grid values reach the plans.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 40, 7, 50, 9, 0, 16, 0, 0, 240, 5, 5, 5})
	f.Add([]byte{5, 70, 2, 0, 60, 16, 32, 48, 64, 1, 1, 0, 255})
	f.Add([]byte{1, 33, 9, 100, 1, 128, 127, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		rows, cols := 1+int(data[0]%6), 1+int(data[1]%72)
		m := method{pattern: prune.Unstructured, sparsity: float64(data[3]%101) / 100}
		switch mode := int(data[2] % 10); {
		case mode < 7:
			m.bits = 2 + mode
		case mode == 8:
			m.pattern = prune.Semi2of4
		case mode == 9:
			m.pattern = prune.Semi4of8
		}
		seed := uint64(binary.LittleEndian.Uint32(data)) | uint64(data[4])<<32
		w := tensor.NewMat(rows, cols)
		w.RandNorm(tensor.NewRNG(seed), 1)
		for i, b := range data[5:min(len(data), 5+len(w.Data))] {
			w.Data[i] = float32(int8(b)) / 16
		}
		checkSweep(t, w, calib(seed, 1+int(data[4]%96), cols), m)
	})
}
