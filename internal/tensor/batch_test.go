package tensor

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// batchOf packs B vectors as the columns of a Mat (the multi-RHS layout).
func batchOf(vecs []Vec) *Mat {
	n := len(vecs[0])
	m := NewMat(n, len(vecs))
	for b, v := range vecs {
		m.SetCol(b, v)
	}
	return m
}

func randVecs(rng *RNG, B, n int, zeroFrac float64) []Vec {
	vs := make([]Vec, B)
	for b := range vs {
		v := NewVec(n)
		for i := range v {
			v[i] = rng.NormFloat32()
			if zeroFrac > 0 && rng.Float64() < zeroFrac {
				v[i] = 0
			}
		}
		vs[b] = v
	}
	return vs
}

// The batched kernels' whole contract: each output column must be
// bit-for-bit equal to an independent single-RHS call — including masked
// and sparse variants with differing per-column masks/unit lists, at widths
// that reach the 8-, 4- and 1-column register tiles.
func TestBatchKernelsMatchSingleRHSBitForBit(t *testing.T) {
	shapes := []struct{ rows, cols, B int }{
		{5, 3, 1},
		{17, 9, 3},
		{64, 48, 8},
		{256, 192, 4},
	}
	for _, sh := range shapes {
		rng := NewRNG(uint64(sh.rows*1000 + sh.B))
		m := NewMat(sh.rows, sh.cols)
		m.RandNorm(rng, 1)
		xs := randVecs(rng, sh.B, sh.cols, 0.2) // exact zeros exercise skips
		ys := randVecs(rng, sh.B, sh.rows, 0.2)

		// MatVecBatch.
		got := MatVecBatch(m, batchOf(xs), nil)
		for b, x := range xs {
			want := MatVec(m, x, nil)
			for i := range want {
				if got.At(i, b) != want[i] {
					t.Fatalf("%dx%dxB%d MatVecBatch[%d,%d] = %v, single %v",
						sh.rows, sh.cols, sh.B, i, b, got.At(i, b), want[i])
				}
			}
		}

		// MatTVecBatch (accumulating form: seed outputs with garbage).
		acc := NewMat(sh.cols, sh.B)
		wantAcc := make([]Vec, sh.B)
		for b := 0; b < sh.B; b++ {
			for j := 0; j < sh.cols; j++ {
				acc.Set(j, b, float32(j%7)-3)
			}
			wantAcc[b] = acc.Col(b, nil)
		}
		MatTVecBatch(m, batchOf(ys), acc)
		for b, y := range ys {
			MatTVec(m, y, wantAcc[b])
			for j := range wantAcc[b] {
				if acc.At(j, b) != wantAcc[b][j] {
					t.Fatalf("MatTVecBatch[%d,%d] = %v, single %v",
						j, b, acc.At(j, b), wantAcc[b][j])
				}
			}
		}

		// MaskedMatVecColsBatch with a different mask per column.
		masks := make([][]bool, sh.B)
		for b := range masks {
			masks[b] = make([]bool, sh.cols)
			for j := range masks[b] {
				masks[b][j] = rng.Float64() < 0.5
			}
		}
		gotM := MaskedMatVecColsBatch(m, batchOf(xs), masks, nil)
		for b, x := range xs {
			want := MaskedMatVecCols(m, x, masks[b], nil)
			for i := range want {
				if gotM.At(i, b) != want[i] {
					t.Fatalf("MaskedMatVecColsBatch[%d,%d] = %v, single %v",
						i, b, gotM.At(i, b), want[i])
				}
			}
		}

		// MatVecSparseBatch with a different unit list per column
		// (different lengths and orders, too).
		idxs := make([][]int, sh.B)
		for b := range idxs {
			k := 1 + int(rng.Float64()*float64(sh.cols-1))
			perm := rng.Perm(sh.cols)
			idxs[b] = perm[:k]
		}
		gotS := MatVecSparseBatch(m, batchOf(xs), idxs, nil, nil)
		for b, x := range xs {
			want := MatVecSparse(m, x, idxs[b], nil)
			for i := range want {
				if gotS.At(i, b) != want[i] {
					t.Fatalf("MatVecSparseBatch[%d,%d] = %v, single %v",
						i, b, gotS.At(i, b), want[i])
				}
			}
		}
	}
}

// TopKIndicesInto must return the same indices in the same order as
// TopKIndices, whatever the scratch and index buffer held before.
func TestTopKIndicesIntoMatchesTopKIndices(t *testing.T) {
	rng := NewRNG(7)
	var scratch TopKScratch
	var idx []int
	for _, n := range []int{1, 5, 64, 192} {
		score := NewVec(n)
		for i := range score {
			score[i] = rng.NormFloat32()
			if i%5 == 0 && i > 0 {
				score[i] = score[i-1] // exercise tie-breaking
			}
		}
		for _, k := range []int{0, 1, n / 2, n - 1, n, n + 3} {
			want := TopKIndices(score, k)
			idx = TopKIndicesInto(score, k, &scratch, idx)
			if len(idx) != len(want) {
				t.Fatalf("n=%d k=%d: Into returned %d indices, want %d", n, k, len(idx), len(want))
			}
			for i := range want {
				if idx[i] != want[i] {
					t.Fatalf("n=%d k=%d: index %d is %d, want %d", n, k, i, idx[i], want[i])
				}
			}
		}
	}
}

// With a scratch and an index buffer warmed at the largest n, neither entry
// point allocates as n then shrinks and grows again.
func TestTopKDoesNotAllocateWithWarmScratch(t *testing.T) {
	rng := NewRNG(13)
	var scratch TopKScratch
	sizes := []int{768, 5, 192, 1, 64, 768, 32}
	scores, keys := make([]Vec, len(sizes)), make([][]uint32, len(sizes))
	for i, n := range sizes {
		scores[i], keys[i] = NewVec(n), make([]uint32, n)
		for j := range scores[i] {
			scores[i][j] = rng.NormFloat32()
			keys[i][j] = OrderKey(scores[i][j])
		}
	}
	idx := TopKIndicesInto(scores[0], sizes[0]-1, &scratch, nil)
	for i, n := range sizes {
		k := n/5 + 1
		if a := testing.AllocsPerRun(10, func() { idx = TopKIndicesInto(scores[i], k, &scratch, idx) }); a != 0 {
			t.Errorf("n=%d: TopKIndicesInto allocates %v objects/call with a warm scratch, want 0", n, a)
		}
		if a := testing.AllocsPerRun(10, func() { idx = TopKKeysInto(keys[i], k, &scratch, idx) }); a != 0 {
			t.Errorf("n=%d: TopKKeysInto allocates %v objects/call with a warm scratch, want 0", n, a)
		}
	}
}

// hv and lessHV are the (value, index) entries and the order of the binary
// min-heap TopKIndices selected with until it became a quickselect.
type hv struct {
	v float32
	i int
}

func lessHV(a, b hv) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	return a.i > b.i
}

// refTopKIndices is that heap selection, kept as the oracle for which indices
// are selected: the k largest scores, the lower index on equal scores, +0
// equal to −0. The order it returns them in (the heap's final array) is not
// part of the contract any more. NaN-free input only — lessHV has no place
// for a NaN.
func refTopKIndices(score Vec, k int) []int {
	n := len(score)
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	if k <= 0 {
		return nil
	}
	heap := make([]hv, k)
	siftDown := func(pos int) {
		for {
			l, r := 2*pos+1, 2*pos+2
			smallest := pos
			if l < k && lessHV(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < k && lessHV(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == pos {
				return
			}
			heap[pos], heap[smallest] = heap[smallest], heap[pos]
			pos = smallest
		}
	}
	for i := range heap {
		heap[i] = hv{score[i], i}
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for i := k; i < n; i++ {
		if lessHV(hv{score[i], i}, heap[0]) {
			continue
		}
		heap[0] = hv{score[i], i}
		siftDown(0)
	}
	idx := make([]int, k)
	for i, h := range heap {
		idx[i] = h.i
	}
	return idx
}

// checkTopKAgainstHeap holds TopKIndices(score, k) to its contract on
// NaN-free scores: strictly ascending, and as a set exactly the heap's. The
// keys-in entry point, given the scores' OrderKeys, must select the same.
func checkTopKAgainstHeap(t *testing.T, score Vec, k int) {
	t.Helper()
	got, want := TopKIndices(score, k), refTopKIndices(score, k)
	keys := make([]uint32, len(score))
	for i, v := range score {
		keys[i] = OrderKey(v)
	}
	if viaKeys := TopKKeysInto(keys, k, nil, nil); fmt.Sprint(viaKeys) != fmt.Sprint(got) {
		t.Fatalf("n=%d k=%d: TopKKeysInto selects %v, TopKIndices %v", len(score), k, viaKeys, got)
	}
	if len(got) != len(want) {
		t.Fatalf("n=%d k=%d: %d indices, reference has %d", len(score), k, len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("n=%d k=%d: position %d holds %d after %d, want strictly ascending", len(score), k, i, got[i], got[i-1])
		}
	}
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d k=%d: %d-th selected index is %d, the heap selects %d", len(score), k, i, got[i], want[i])
		}
	}
}

// The selected set is the heap's and the order is ascending — on ties, zeros
// of both signs, signed scores, and every k from none to all.
func TestTopKIndicesSelectsHeapSetAscending(t *testing.T) {
	rng := NewRNG(11)
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{1, 2, 7, 64, 256, 768} {
		for trial := 0; trial < 6; trial++ {
			score := NewVec(n)
			for i := range score {
				switch v := rng.NormFloat32(); {
				case trial%2 == 1 && i%3 == 0 && i > 0:
					score[i] = score[i-1]
				case i%7 == 3:
					score[i] = 0
				case i%7 == 5:
					score[i] = negZero
				case trial >= 4:
					score[i] = v // signed scores, as calibration passes them
				default:
					score[i] = float32(math.Abs(float64(v)))
				}
			}
			for k := 0; k <= n; k++ {
				checkTopKAgainstHeap(t, score, k)
			}
		}
	}
}

// k ≤ 0 hands the caller's buffer back empty instead of dropping it, and a
// NaN is selected only once every number is.
func TestTopKIndicesKeepsBufferAndRanksNaNLast(t *testing.T) {
	buf := make([]int, 3, 8)
	for _, k := range []int{0, -2} {
		if got := TopKIndicesInto(Vec{1, 2, 3}, k, nil, buf); got == nil || len(got) != 0 || cap(got) != cap(buf) {
			t.Fatalf("k=%d: got %v (cap %d), want the caller's buffer at length 0", k, got, cap(got))
		}
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	score := Vec{nan, -inf, 2, nan, -1, inf}
	for k, want := range [][]int{{}, {5}, {2, 5}, {2, 4, 5}, {1, 2, 4, 5}, {0, 1, 2, 4, 5}, {0, 1, 2, 3, 4, 5}} {
		got := TopKIndices(score, k)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("k=%d of %v: selected %v, want %v", k, score, got, want)
		}
	}
}

func TestReuseMatAndGrowAndAddColTo(t *testing.T) {
	m := NewMat(3, 2)
	if ReuseMat(m, 3, 2) != m {
		t.Fatal("ReuseMat reallocated a matching matrix")
	}
	if got := ReuseMat(m, 2, 3); got != m || got.Rows != 2 || got.Cols != 3 {
		t.Fatal("ReuseMat must reshape in place over a sufficient backing array")
	}
	if got := ReuseMat(m, 4, 4); got == m || got.Rows != 4 || got.Cols != 4 {
		t.Fatal("ReuseMat must reallocate when the backing array is too small")
	}
	if ReuseMat(nil, 1, 1) == nil {
		t.Fatal("ReuseMat(nil) must allocate")
	}

	v := NewVec(8)
	if got := Grow(v, 4); cap(got) != cap(v) || len(got) != 4 {
		t.Fatalf("Grow shrink reallocated: len %d cap %d", len(got), cap(got))
	}
	if got := Grow(v, 16); len(got) != 16 {
		t.Fatalf("Grow extend returned len %d", len(got))
	}

	m = NewMat(3, 2)
	m.Set(0, 1, 2)
	m.Set(1, 1, 3)
	m.Set(2, 1, 5)
	dst := Vec{10, 20, 30}
	m.AddColTo(1, dst)
	if dst[0] != 12 || dst[1] != 23 || dst[2] != 35 {
		t.Fatalf("AddColTo = %v", dst)
	}
}
