package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint32() == c.Uint32() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		x := r.Intn(7)
		if x < 0 || x >= 7 {
			t.Fatalf("Intn(7) = %d out of range", x)
		}
		seen[x]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] < 10000/7/2 {
			t.Fatalf("Intn value %d badly under-represented: %d", v, seen[v])
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(3)
	var sum, sumsq float64
	const n = 50000
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %.4f", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	v.Add(w)
	if v[0] != 5 || v[2] != 9 {
		t.Fatalf("Add wrong: %v", v)
	}
	v.Scale(2)
	if v[1] != 14 {
		t.Fatalf("Scale wrong: %v", v)
	}
	if got := (Vec{1, 2, 3}).Mean(); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMatVec(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 3, Data: []float32{1, 2, 3, 4, 5, 6}}
	out := MatVec(m, Vec{1, 0, -1}, nil)
	if out[0] != -2 || out[1] != -2 {
		t.Fatalf("MatVec = %v", out)
	}
}

func TestMatTVecAccumulates(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 2, Data: []float32{1, 2, 3, 4}}
	out := Vec{10, 10}
	MatTVec(m, Vec{1, 1}, out)
	if out[0] != 14 || out[1] != 16 {
		t.Fatalf("MatTVec = %v", out)
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	AddOuter(m, 2, Vec{1, 2}, Vec{3, 4})
	want := []float32{6, 8, 12, 16}
	for i, x := range want {
		if m.Data[i] != x {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := NewRNG(9)
	m := NewMat(5, 7)
	m.RandNorm(r, 1)
	tt := m.T().T()
	for i := range m.Data {
		if tt.Data[i] != m.Data[i] {
			t.Fatal("transpose twice is not identity")
		}
	}
}

func TestColRoundTrip(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 3, Data: []float32{1, 2, 3, 4, 5, 6}}
	c := m.Col(1, nil)
	if c[0] != 2 || c[1] != 5 {
		t.Fatalf("Col = %v", c)
	}
	m.SetCol(1, Vec{9, 10})
	if m.At(0, 1) != 9 || m.At(1, 1) != 10 {
		t.Fatal("SetCol failed")
	}
}

// Property: masked matvec with an all-true mask equals the dense matvec.
func TestMaskedMatVecAllTrueEqualsDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows, cols := 3+r.Intn(8), 3+r.Intn(8)
		m := NewMat(rows, cols)
		m.RandNorm(r, 1)
		x := NewVec(cols)
		for i := range x {
			x[i] = r.NormFloat32()
		}
		mask := make([]bool, cols)
		for i := range mask {
			mask[i] = true
		}
		dense := MatVec(m, x, nil)
		masked := MaskedMatVecCols(m, x, mask, nil)
		for i := range dense {
			if math.Abs(float64(dense[i]-masked[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: masked matvec equals dense matvec on an input with pruned
// coordinates zeroed out.
func TestMaskedMatVecEqualsZeroedInput(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows, cols := 2+r.Intn(6), 2+r.Intn(10)
		m := NewMat(rows, cols)
		m.RandNorm(r, 1)
		x := NewVec(cols)
		mask := make([]bool, cols)
		for i := range x {
			x[i] = r.NormFloat32()
			mask[i] = r.Float64() < 0.5
		}
		masked := MaskedMatVecCols(m, x, mask, nil)
		zeroed := x.Clone()
		for i := range zeroed {
			if !mask[i] {
				zeroed[i] = 0
			}
		}
		dense := MatVec(m, zeroed, nil)
		for i := range dense {
			if math.Abs(float64(dense[i]-masked[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A short out would run off its end and a long one would keep stale entries
// past m.Rows; both are named, as MatVec names them.
func TestMaskedMatVecColsRejectsWrongOutLength(t *testing.T) {
	m := NewMat(4, 3)
	for _, n := range []int{3, 5} {
		func() {
			defer func() {
				if r := recover(); r != "tensor: MaskedMatVecCols out length mismatch" {
					t.Fatalf("out length %d for 4 rows: recovered %v, want the out length panic", n, r)
				}
			}()
			MaskedMatVecCols(m, NewVec(3), make([]bool, 3), NewVec(n))
		}()
	}
}

// Property: MatVecSparse over the active index list matches MaskedMatVecCols.
func TestMatVecSparseMatchesMask(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows, cols := 2+r.Intn(6), 2+r.Intn(10)
		m := NewMat(rows, cols)
		m.RandNorm(r, 1)
		x := NewVec(cols)
		mask := make([]bool, cols)
		var idx []int
		for i := range x {
			x[i] = r.NormFloat32()
			if r.Float64() < 0.5 {
				mask[i] = true
				idx = append(idx, i)
			}
		}
		a := MaskedMatVecCols(m, x, mask, nil)
		b := MatVecSparse(m, x, idx, nil)
		for i := range a {
			if math.Abs(float64(a[i]-b[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(20)
		logits := NewVec(n)
		for i := range logits {
			logits[i] = r.NormFloat32() * 10
		}
		p := Softmax(logits, nil)
		var sum float64
		for _, x := range p {
			if x < 0 {
				return false
			}
			sum += float64(x)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	logits := Vec{1, 2, 3}
	shifted := Vec{101, 102, 103}
	a := Softmax(logits, nil)
	b := Softmax(shifted, nil)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-5 {
			t.Fatalf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp(Vec{0, 0})
	if math.Abs(got-math.Log(2)) > 1e-6 {
		t.Fatalf("LogSumExp = %v", got)
	}
	// Large values must not overflow.
	got = LogSumExp(Vec{1000, 1000})
	if math.Abs(got-(1000+math.Log(2))) > 1e-3 {
		t.Fatalf("LogSumExp overflow: %v", got)
	}
}

func TestSiLU(t *testing.T) {
	if SiLU(0) != 0 {
		t.Fatal("SiLU(0) != 0")
	}
	if got := SiLU(10); math.Abs(float64(got)-10) > 1e-3 {
		t.Fatalf("SiLU(10) = %v, want ~10", got)
	}
	if got := SiLU(-10); math.Abs(float64(got)) > 1e-3 {
		t.Fatalf("SiLU(-10) = %v, want ~0", got)
	}
	// Gradient check against finite differences.
	for _, x := range []float32{-3, -1, -0.1, 0, 0.1, 1, 3} {
		const h = 1e-3
		num := (SiLU(x+h) - SiLU(x-h)) / (2 * h)
		if math.Abs(float64(num-SiLUGrad(x))) > 1e-2 {
			t.Fatalf("SiLUGrad(%v) = %v, finite diff %v", x, SiLUGrad(x), num)
		}
	}
}

func TestReLU(t *testing.T) {
	if ReLU(-1) != 0 || ReLU(2) != 2 {
		t.Fatal("ReLU wrong")
	}
	if ReLUGrad(-1) != 0 || ReLUGrad(2) != 1 {
		t.Fatal("ReLUGrad wrong")
	}
}

func TestTopKIndicesExact(t *testing.T) {
	score := Vec{5, 1, 9, 3, 7}
	idx := TopKIndices(score, 2)
	seen := map[int]bool{}
	for _, i := range idx {
		seen[i] = true
	}
	if !seen[2] || !seen[4] || len(idx) != 2 {
		t.Fatalf("TopKIndices = %v, want {2,4}", idx)
	}
}

func TestTopKIndicesEdgeCases(t *testing.T) {
	if got := TopKIndices(Vec{1, 2}, 0); len(got) != 0 {
		t.Fatalf("k=0 should give empty, got %v", got)
	}
	if got := TopKIndices(Vec{1, 2}, 5); len(got) != 2 {
		t.Fatalf("k>n should give all, got %v", got)
	}
	if got := TopKIndices(Vec{}, 3); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
}

func TestTopKIndicesTiesDeterministic(t *testing.T) {
	score := Vec{1, 1, 1, 1}
	a := TopKIndices(score, 2)
	b := TopKIndices(score, 2)
	am := map[int]bool{}
	for _, i := range a {
		am[i] = true
	}
	for _, i := range b {
		if !am[i] {
			t.Fatalf("tie-breaking not deterministic: %v vs %v", a, b)
		}
	}
	// Lower indices win ties.
	if !am[0] || !am[1] {
		t.Fatalf("expected indices 0,1 to win ties, got %v", a)
	}
}

// Property: TopKIndices returns exactly the k largest values (as a multiset).
func TestTopKIndicesMatchesSort(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(50)
		k := r.Intn(n + 1)
		score := NewVec(n)
		for i := range score {
			score[i] = r.NormFloat32()
		}
		idx := TopKIndices(score, k)
		if len(idx) != k {
			return false
		}
		order := ArgsortDesc(score)
		want := map[int]bool{}
		for _, i := range order[:k] {
			want[i] = true
		}
		for _, i := range idx {
			if !want[i] {
				// Allow equal-value swaps.
				minKept := float32(math.Inf(1))
				for _, w := range order[:k] {
					if score[w] < minKept {
						minKept = score[w]
					}
				}
				if score[i] != minKept {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKAbsMask(t *testing.T) {
	mask := TopKAbsMask(Vec{-5, 1, 3, -2}, 2, nil)
	if !mask[0] || !mask[2] || mask[1] || mask[3] {
		t.Fatalf("TopKAbsMask = %v", mask)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float32{1, 2, 3, 4, 5}
	if got := Quantile(vals, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(vals, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(vals, 0.5); got != 3 {
		t.Fatalf("q0.5 = %v", got)
	}
	if got := Quantile(vals, 0.25); got != 2 {
		t.Fatalf("q0.25 = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	// Input must not be modified.
	vals2 := []float32{3, 1, 2}
	Quantile(vals2, 0.5)
	if vals2[0] != 3 || vals2[1] != 1 {
		t.Fatal("Quantile modified its input")
	}
}

func TestQuantileMatchesSortReference(t *testing.T) {
	rng := NewRNG(7)
	cases := [][]float32{
		{3},
		{1, 2},
		{5, 5, 5, 5, 5}, // equal runs must not degrade quickselect
		{0, 0, 0, 1, 2, 0, 0},
		{2, 1, 1, 2, 1, 2, 2, 1, 1}, // two distinct values
	}
	big := make([]float32, 4001)
	for i := range big {
		big[i] = rng.NormFloat32()
	}
	cases = append(cases, big)
	zeros := make([]float32, 2000) // ReLU-style zero spike
	for i := range zeros[:200] {
		zeros[i] = rng.NormFloat32()
	}
	cases = append(cases, zeros)
	for ci, vals := range cases {
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.77, 0.999, 1} {
			got := Quantile(vals, q)
			want := sortQuantileRef(vals, q)
			if got != want {
				t.Fatalf("case %d q=%v: Quantile=%v, sort reference=%v", ci, q, got, want)
			}
		}
	}
}

// sortQuantileRef is the original sort-based implementation, kept as the
// reference the quickselect version must match bit-for-bit.
func sortQuantileRef(values []float32, q float64) float32 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float32, len(values))
	copy(sorted, values)
	for i := 1; i < len(sorted); i++ { // insertion sort: reference only
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := float32(pos - float64(lo))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func TestHistogram(t *testing.T) {
	counts, edges := Histogram([]float32{0.1, 0.2, 0.9, -5, 99}, 2, 0, 1)
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	if counts[0] != 3 || counts[1] != 2 { // -5 clamps low, 99 clamps high
		t.Fatalf("counts = %v", counts)
	}
}

func TestLogitExpitInverse(t *testing.T) {
	for _, p := range []float64{0.01, 0.3, 0.5, 0.77, 0.99} {
		if got := Expit(Logit(p)); math.Abs(got-p) > 1e-9 {
			t.Fatalf("Expit(Logit(%v)) = %v", p, got)
		}
	}
	// Clamping prevents infinities.
	if math.IsInf(Logit(0), 0) || math.IsInf(Logit(1), 0) {
		t.Fatal("Logit should clamp extremes")
	}
}

func TestArgsortDesc(t *testing.T) {
	idx := ArgsortDesc(Vec{1, 3, 2})
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Fatalf("ArgsortDesc = %v", idx)
	}
}
