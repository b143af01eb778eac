package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// refMatVecSparse is the strided row-major loop MatVecSparse used before the
// input-major mirror, kept as the oracle: unit-outer, row-inner, zero inputs
// skipped, every out[i] accumulating in idx order. It reads m.Data only, so
// it is also what a stale mirror is measured against.
func refMatVecSparse(m *Mat, x Vec, idx []int) Vec {
	out := NewVec(m.Rows)
	for _, j := range idx {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for i := range out {
			out[i] += m.Data[i*m.Cols+j] * xj
		}
	}
	return out
}

// sameBits compares bit patterns, so -0 ≠ +0; two NaNs count as equal
// whatever their payloads (the fuzzer feeds NaN inputs, and which operand's
// payload an add propagates is the instruction selector's business).
func sameBits(a, b Vec) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d != %d", len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && (a[i] == a[i] || b[i] == b[i]) {
			return fmt.Errorf("[%d] = %v, want %v", i, a[i], b[i])
		}
	}
	return nil
}

// sparseCase draws a rows×cols matrix, B inputs with about a fifth of their
// coordinates zero, and per-input unsorted unit lists of length k.
func sparseCase(rng *RNG, rows, cols, k, B int) (m *Mat, xs []Vec, idxs [][]int) {
	m = NewMat(rows, cols)
	m.RandNorm(rng, 1)
	for b := 0; b < B; b++ {
		x := NewVec(cols)
		for j := range x {
			if rng.Float64() < 0.8 {
				x[j] = rng.NormFloat32()
			}
		}
		xs = append(xs, x)
		idxs = append(idxs, rng.Perm(cols)[:k])
	}
	return m, xs, idxs
}

// checkSparseAgainstOracle holds MatVecSparse and MatVecSparseBatch to the
// oracle bit for bit, with the mirror both cold (first pass) and warm (second).
func checkSparseAgainstOracle(t *testing.T, m *Mat, xs []Vec, idxs [][]int) {
	t.Helper()
	B := len(xs)
	batch := NewMat(m.Cols, B)
	for b, x := range xs {
		batch.SetCol(b, x)
	}
	var scratch SparseBatchScratch
	for _, mirror := range []string{"cold", "warm"} {
		got := MatVecSparseBatch(m, batch, idxs, nil, &scratch)
		for b, x := range xs {
			want := refMatVecSparse(m, x, idxs[b])
			if err := sameBits(MatVecSparse(m, x, idxs[b], nil), want); err != nil {
				t.Fatalf("%dx%d k=%d mirror %s MatVecSparse%v", m.Rows, m.Cols, len(idxs[b]), mirror, err)
			}
			if err := sameBits(got.Col(b, nil), want); err != nil {
				t.Fatalf("%dx%d k=%d mirror %s MatVecSparseBatch column %d %v", m.Rows, m.Cols, len(idxs[b]), mirror, b, err)
			}
		}
	}
}

func TestSparseKernelMatchesOracleBitForBit(t *testing.T) {
	rng := NewRNG(31)
	dims := []int{0, 1, 3, 4, 5, 7, 11, 13, 37}
	for _, rows := range dims {
		for _, cols := range dims {
			for _, k := range dims {
				if k <= cols {
					m, xs, idxs := sparseCase(rng, rows, cols, k, 3)
					checkSparseAgainstOracle(t, m, xs, idxs)
				}
			}
		}
	}
	// The bandwidth-bound analog's projections at DIP-CA-50's keep counts.
	for _, sh := range [][3]int{{768, 256, 166}, {256, 768, 154}} {
		m, xs, idxs := sparseCase(rng, sh[0], sh[1], sh[2], 8)
		checkSparseAgainstOracle(t, m, xs, idxs)
	}
}

// TestSparseAccumEveryLength runs the kernel at every output length 0…41 —
// every residue mod 8 of the eight-float body and its scalar tail, with odd
// lengths starting the mirror rows off 16-byte alignment — and every unit
// count 0…9, so the leftover loop gets 0 to 3 units. Special values go into
// the weights, the inputs, and both at once: the values a vector lane could
// treat differently from the scalar loop — both zeros, both ends of the
// denormal range (no flush to zero), the infinities, NaN, and the extremes
// whose products overflow.
func TestSparseAccumEveryLength(t *testing.T) {
	rng := NewRNG(41)
	const cols = 11
	specials := []float32{
		float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32,
	}
	special := func(v Vec) {
		for p := range v {
			if rng.Intn(5) == 0 {
				v[p] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for rows := 0; rows <= 41; rows++ {
		for k := 0; k <= 9; k++ {
			for _, sp := range []struct{ w, x bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				m := NewMat(rows, cols)
				m.RandNorm(rng, 1)
				if sp.w {
					special(m.Data)
					m.Invalidate()
				}
				xs, idxs := make([]Vec, 2), make([][]int, 2)
				for b := range xs {
					xs[b] = NewVec(cols)
					for j := range xs[b] {
						xs[b][j] = rng.NormFloat32()
					}
					if sp.x {
						special(xs[b])
					}
					idxs[b] = rng.Perm(cols)[:k]
				}
				checkSparseAgainstOracle(t, m, xs, idxs)
			}
		}
	}
}

// With an ascending unit list — what TopKIndices returns — every output of
// MatVecSparse adds its terms in ascending-j order, which is the masked
// product of Eq. 3 term for term. Zero-free inputs: the sparse kernel skips a
// zero input where the masked one adds its ±0 product.
func TestSortedSparseListIsTheMaskedProduct(t *testing.T) {
	rng := NewRNG(37)
	for _, sh := range [][2]int{{1, 1}, {5, 7}, {37, 13}, {96, 32}, {256, 768}} {
		m := NewMat(sh[0], sh[1])
		m.RandNorm(rng, 1)
		x := NewVec(sh[1])
		for j := range x {
			x[j] = rng.NormFloat32() + 4
		}
		for _, k := range []int{0, 1, sh[1] / 2, sh[1]} {
			idx := TopKIndices(x, k)
			active := make([]bool, sh[1])
			for _, j := range idx {
				active[j] = true
			}
			if err := sameBits(MatVecSparse(m, x, idx, nil), MaskedMatVecCols(m, x, active, nil)); err != nil {
				t.Fatalf("%dx%d k=%d: MatVecSparse%v (MaskedMatVecCols)", sh[0], sh[1], k, err)
			}
		}
	}
}

// FuzzMatVecSparse decodes bytes into (shape, idx, x): two shape bytes, then
// per unit one index byte and four value bytes (any bit pattern, so NaNs,
// infinities, denormals and both zeros reach the kernel). Duplicate units are
// allowed — a caller bug, but one the kernel must still sum like the oracle.
func FuzzMatVecSparse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 4, 0, 0, 128, 63, 1, 0, 0, 0, 0, 4, 0, 0, 0, 128})
	f.Add([]byte{40, 9, 8, 0, 0, 192, 127, 7, 1, 0, 0, 0, 2, 0, 0, 128, 255, 8, 0, 0, 64, 64, 0, 219, 15, 73, 64, 3, 0, 0, 0, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := int(data[0]%48), 1+int(data[1]%48)
		data = data[2:]
		rng := NewRNG(uint64(rows)<<8 | uint64(cols))
		m := NewMat(rows, cols)
		m.RandNorm(rng, 1)
		x := NewVec(cols)
		var idx []int
		for ; len(data) >= 5; data = data[5:] {
			j := int(data[0]) % cols
			idx = append(idx, j)
			x[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[1:]))
		}
		want := refMatVecSparse(m, x, idx)
		for _, warm := range []string{"cold", "warm"} {
			if err := sameBits(MatVecSparse(m, x, idx, nil), want); err != nil {
				t.Fatalf("%s mirror: MatVecSparse%v", warm, err)
			}
		}
		xs := NewMat(cols, 2)
		xs.SetCol(1, x)
		got := MatVecSparseBatch(m, xs, [][]int{nil, idx}, nil, nil)
		if err := sameBits(got.Col(1, nil), want); err != nil {
			t.Fatalf("MatVecSparseBatch column 1 %v", err)
		}
		if err := sameBits(got.Col(0, nil), NewVec(rows)); err != nil {
			t.Fatalf("MatVecSparseBatch empty column 0 %v", err)
		}
	})
}

// FuzzTopKIndices decodes bytes into (k, scores): one byte of k, then four
// bytes per score — any bit pattern, so NaNs, infinities, denormals, both
// zeros and duplicates reach the selection. The result is always k-clamped in
// length, strictly ascending and in range; on NaN-free input it is the heap's
// set, and with NaNs no NaN is selected while a number is left out.
func FuzzTopKIndices(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 128, 63, 0, 0, 128, 63, 0, 0, 0, 0, 0, 0, 0, 128})
	f.Add([]byte{3, 0, 0, 192, 127, 0, 0, 128, 255, 0, 0, 128, 127, 1, 0, 0, 0, 0, 0, 192, 255, 219, 15, 73, 64})
	// The inputs a pivot drawn from a few keys gets wrong: all keys equal,
	// k = 1, k = n−1, and two distinct values.
	seed := func(k int8, scores ...float32) []byte {
		b := []byte{byte(k)}
		for _, v := range scores {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(seed(3, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5))
	f.Add(seed(1, 0.5, -2, 3, 1.5, 3, 2))
	f.Add(seed(5, 0.5, -2, 3, 1.5, 3, 2))
	f.Add(seed(4, 2, 1, 1, 2, 1, 2, 2, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(int8(data[0]))
		var score Vec
		hasNaN := false
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			v := math.Float32frombits(binary.LittleEndian.Uint32(data))
			hasNaN = hasNaN || v != v
			score = append(score, v)
		}
		if !hasNaN {
			checkTopKAgainstHeap(t, score, k)
			return
		}
		got := TopKIndices(score, k)
		if want := min(max(k, 0), len(score)); len(got) != want {
			t.Fatalf("k=%d of %d scores: %d indices, want %d", k, len(score), len(got), want)
		}
		selected := make([]bool, len(score))
		for i, j := range got {
			if j < 0 || j >= len(score) || (i > 0 && got[i-1] >= j) {
				t.Fatalf("k=%d: selection %v is not ascending inside [0, %d)", k, got, len(score))
			}
			selected[j] = true
		}
		nanIn, numberOut := false, false
		for j, v := range score {
			nanIn = nanIn || (selected[j] && v != v)
			numberOut = numberOut || (!selected[j] && v == v)
		}
		if nanIn && numberOut {
			t.Fatalf("k=%d of %v: %v selects a NaN and leaves a number out", k, score, got)
		}
	})
}

// Mat's own mutators drop the mirror themselves; a raw Data write needs
// Invalidate. After each, the kernel must see the new weights.
func TestMatMutatorsDropMirror(t *testing.T) {
	rng := NewRNG(17)
	ones := NewVec(9)
	ones.Fill(1)
	mutators := []struct {
		name string
		fn   func(m *Mat) *Mat
	}{
		{"Set", func(m *Mat) *Mat { m.Set(3, 2, 42); return m }},
		{"SetCol", func(m *Mat) *Mat { m.SetCol(4, ones); return m }},
		{"Zero", func(m *Mat) *Mat { m.Zero(); return m }},
		{"RandNorm", func(m *Mat) *Mat { m.RandNorm(rng, 2); return m }},
		{"AddOuter", func(m *Mat) *Mat { AddOuter(m, 1, ones, ones[:6]); return m }},
		{"ReuseMat reshape", func(m *Mat) *Mat { return ReuseMat(m, 6, 9) }},
		{"raw write + Invalidate", func(m *Mat) *Mat { m.Data[7] = -3; m.Invalidate(); return m }},
	}
	for _, mu := range mutators {
		m, xs, idxs := sparseCase(rng, 9, 6, 4, 1)
		MatVecSparse(m, xs[0], idxs[0], nil) // warm the mirror
		before := m.Clone()
		m = mu.fn(m)
		if sameBits(before.Data, m.Data) == nil && before.Rows == m.Rows {
			t.Fatalf("%s: mutator left the matrix unchanged; the row proves nothing", mu.name)
		}
		x := NewVec(m.Cols)
		x.Fill(0.5)
		idx := []int{m.Cols - 1, 0, 2}
		if err := sameBits(MatVecSparse(m, x, idx, nil), refMatVecSparse(m, x, idx)); err != nil {
			t.Fatalf("%s: sparse kernel read a stale mirror: %v", mu.name, err)
		}
	}
}

// A weight rewrite that forgets Invalidate must be loud on the next sparse
// call, single or batched, not a silently wrong product.
func TestStaleMirrorPanics(t *testing.T) {
	m, xs, idxs := sparseCase(NewRNG(5), 12, 10, 5, 1)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"MatVecSparse", func() { MatVecSparse(m, xs[0], idxs[0], nil) }},
		{"MatVecSparseBatch", func() { MatVecSparseBatch(m, NewMat(10, 1), idxs, nil, nil) }},
	} {
		m.Invalidate()
		c.call() // warm
		for i := range m.Data {
			m.Data[i] += 1
		}
		func() {
			defer func() {
				if r := recover(); r != "tensor: Mat written without Invalidate" {
					t.Fatalf("%s on a stale mirror: recovered %v, want the Invalidate panic", c.name, r)
				}
			}()
			c.call()
		}()
	}
}

// Both sparse kernels name a wrong-length input instead of reading a prefix
// of it (too long) or running off its end (too short).
func TestSparseKernelsRejectWrongInputLength(t *testing.T) {
	m := NewMat(4, 6)
	for _, n := range []int{5, 7} {
		for _, c := range []struct {
			name string
			call func()
		}{
			{"MatVecSparse", func() { MatVecSparse(m, NewVec(n), []int{0}, nil) }},
			{"MatVecSparseBatch", func() { MatVecSparseBatch(m, NewMat(n, 2), [][]int{{0}, {1}}, nil, nil) }},
		} {
			func() {
				defer func() {
					want := "tensor: " + c.name + " x"
					if r, _ := recover().(string); !strings.HasPrefix(r, want) {
						t.Fatalf("%s with input length %d: recovered %q, want a panic starting %q", c.name, n, r, want)
					}
				}()
				c.call()
			}()
		}
	}
}

// Steady-state decode at the analog's shapes allocates nothing inside a
// kernel given caller-owned outputs: no closure, no pair buffers, the sparse
// accumulator lives in the scratch.
func TestSparseKernelsDoNotAllocate(t *testing.T) {
	rng := NewRNG(23)
	for _, sh := range [][3]int{{768, 256, 166}, {256, 768, 154}} {
		m, xs, idxs := sparseCase(rng, sh[0], sh[1], sh[2], 8)
		out := NewVec(m.Rows)
		batch, outs := NewMat(m.Cols, 8), NewMat(m.Rows, 8)
		for b, x := range xs {
			batch.SetCol(b, x)
		}
		var scratch SparseBatchScratch
		MatVecSparseBatch(m, batch, idxs, outs, &scratch) // build mirror, grow scratch
		if a := testing.AllocsPerRun(10, func() { MatVecSparse(m, xs[0], idxs[0], out) }); a != 0 {
			t.Errorf("%dx%d MatVecSparse allocates %v objects/call, want 0", m.Rows, m.Cols, a)
		}
		if a := testing.AllocsPerRun(10, func() { MatVecSparseBatch(m, batch, idxs, outs, &scratch) }); a != 0 {
			t.Errorf("%dx%d MatVecSparseBatch allocates %v objects/call, want 0", m.Rows, m.Cols, a)
		}
		if a := testing.AllocsPerRun(10, func() { MatVec(m, xs[0], out) }); a != 0 {
			t.Errorf("%dx%d MatVec allocates %v objects/call, want 0", m.Rows, m.Cols, a)
		}
		if a := testing.AllocsPerRun(10, func() { MatVecBatch(m, batch, outs) }); a != 0 {
			t.Errorf("%dx%d MatVecBatch allocates %v objects/call, want 0", m.Rows, m.Cols, a)
		}
	}
}

// Nodes of a cluster share one model, so the first sparse products on a
// matrix can arrive from several goroutines at once: each builds the same
// mirror, one is published, and every caller gets the oracle's product. Run
// under -race.
func TestConcurrentFirstUseBuildsOneMirror(t *testing.T) {
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(4)
	rng := NewRNG(29)
	for round := 0; round < 20; round++ {
		m, xs, idxs := sparseCase(rng, 24, 16, 9, 1)
		want := refMatVecSparse(m, xs[0], idxs[0])
		errs := make([]error, 8)
		parallel.For(len(errs), 1, func(lo, hi int) {
			for g := lo; g < hi; g++ {
				errs[g] = sameBits(MatVecSparse(m, xs[0], idxs[0], nil), want)
			}
		})
		for g, err := range errs {
			if err != nil {
				t.Fatalf("round %d caller %d: MatVecSparse%v", round, g, err)
			}
		}
	}
}
