package tensor

import (
	"math"
	"sort"
)

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// SiLU returns x·sigmoid(x), the activation used by SwiGLU MLPs.
func SiLU(x float32) float32 { return x * Sigmoid(x) }

// SiLUGrad returns d SiLU(x)/dx = sigmoid(x)·(1 + x·(1-sigmoid(x))).
func SiLUGrad(x float32) float32 {
	s := Sigmoid(x)
	return s * (1 + x*(1-s))
}

// ReLU returns max(x, 0).
func ReLU(x float32) float32 {
	if x > 0 {
		return x
	}
	return 0
}

// ReLUGrad returns 1 for x>0 else 0.
func ReLUGrad(x float32) float32 {
	if x > 0 {
		return 1
	}
	return 0
}

// Softmax writes the softmax of logits into out (allocated when nil) and
// returns it. Numerically stabilized by max subtraction.
func Softmax(logits Vec, out Vec) Vec {
	if out == nil {
		out = NewVec(len(logits))
	}
	if len(out) != len(logits) {
		panic("tensor: Softmax out length mismatch")
	}
	if len(logits) == 0 {
		return out
	}
	maxv := logits[0]
	for _, x := range logits[1:] {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for i, x := range logits {
		e := math.Exp(float64(x - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// LogSumExp returns log Σ exp(logits_i) computed stably.
func LogSumExp(logits Vec) float64 {
	if len(logits) == 0 {
		return math.Inf(-1)
	}
	maxv := logits[0]
	for _, x := range logits[1:] {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for _, x := range logits {
		sum += math.Exp(float64(x - maxv))
	}
	return float64(maxv) + math.Log(sum)
}

// TopKIndices returns the indices of the k largest values of score, in no
// particular order. k is clamped to [0, len(score)]. Ties are broken by
// lower index to keep results deterministic. The selection is O(n log k)
// via a binary min-heap over (value, index) pairs.
func TopKIndices(score Vec, k int) []int {
	return TopKIndicesInto(score, k, nil, nil)
}

// TopKScratch holds the reusable heap of TopKIndicesInto.
type TopKScratch struct {
	heap []hv
}

// hv is one heap entry of the top-k selection.
type hv struct {
	v float32
	i int
}

// TopKIndicesInto is TopKIndices with caller-owned storage: the selection
// heap comes from s and the result is appended to idx[:0] (both may be nil
// to allocate). The returned indices are identical — including order — to
// TopKIndices on the same input, so per-token hot loops can drop the two
// allocations per call without perturbing downstream accumulation or cache
// access order.
func TopKIndicesInto(score Vec, k int, s *TopKScratch, idx []int) []int {
	n := len(score)
	if k >= n {
		idx = grow(idx, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	if k <= 0 {
		return nil
	}
	var local TopKScratch
	if s == nil {
		s = &local
	}
	// Min-heap of the current top-k: heap[0] is the smallest kept value.
	if cap(s.heap) < k {
		s.heap = make([]hv, k)
	}
	heap := s.heap[:k]
	for i := 0; i < k; i++ {
		heap[i] = hv{score[i], i}
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDownHV(heap, i)
	}
	h0 := heap[0]
	for i := k; i < n; i++ {
		v := score[i]
		// Inlined "heap[0] < candidate" (ties lose to the lower index, so a
		// candidate with v == h0.v never displaces the root): this is the hot
		// comparison — most elements lose to the current minimum and never
		// touch the heap.
		if v < h0.v || (v == h0.v && i > h0.i) {
			continue
		}
		heap[0] = hv{v, i}
		siftDownHV(heap, 0)
		h0 = heap[0]
	}
	idx = grow(idx, k)
	for i, h := range heap {
		idx[i] = h.i
	}
	return idx
}

// lessHV orders heap entries: smaller value first, ties broken so the
// higher index is "smaller" (loses, keeping results deterministic).
func lessHV(a, b hv) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	return a.i > b.i
}

// siftDownHV restores the min-heap property from pos downward. The displaced
// entry is carried in a register and written once where it settles; the
// comparisons are the ones a swap at every level would make, in the same
// order, so the final array — which is the order TopKIndicesInto returns —
// is the same.
func siftDownHV(heap []hv, pos int) {
	k := len(heap)
	e := heap[pos]
	for {
		l := 2*pos + 1
		if l >= k {
			break
		}
		child, m := pos, e
		if lessHV(heap[l], m) {
			child, m = l, heap[l]
		}
		if r := l + 1; r < k && lessHV(heap[r], m) {
			child, m = r, heap[r]
		}
		if child == pos {
			break
		}
		heap[pos] = m
		pos = child
	}
	heap[pos] = e
}

// TopKAbsMask returns a boolean mask keeping the k largest-magnitude
// entries of x. This is the per-token top-K thresholding of Section 3.1.
// scratch, when non-nil and of matching length, holds the |x| scores and is
// overwritten — callers in per-token loops pass a reused buffer to avoid
// one allocation per call; pass nil to allocate internally.
func TopKAbsMask(x Vec, k int, scratch Vec) []bool {
	score := Reuse(scratch, len(x))
	for i, v := range x {
		if v < 0 {
			score[i] = -v
		} else {
			score[i] = v
		}
	}
	mask := make([]bool, len(x))
	for _, i := range TopKIndices(score, k) {
		mask[i] = true
	}
	return mask
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the values using linear
// interpolation between order statistics. The input is not modified. The
// order statistics are found by quickselect in expected O(n) rather than a
// full sort; results are identical to the sort-based computation.
func Quantile(values []float32, q float64) float32 {
	n := len(values)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		m := values[0]
		for _, v := range values[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	if q >= 1 {
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	buf := make([]float32, n)
	copy(buf, values)
	pos := q * float64(n-1)
	lo := int(pos)
	frac := float32(pos - float64(lo))
	a := selectKth(buf, lo)
	if lo+1 >= n {
		return a
	}
	// selectKth leaves buf[lo+1:] ≥ buf[lo], so the next order statistic is
	// the minimum of the right partition.
	b := buf[lo+1]
	for _, v := range buf[lo+2:] {
		if v < b {
			b = v
		}
	}
	return a*(1-frac) + b*frac
}

// selectKth partially orders buf so buf[k] holds the k-th smallest value,
// with buf[:k] ≤ buf[k] ≤ buf[k+1:]. Iterative quickselect with
// median-of-three Hoare partitioning (robust to runs of equal values, e.g.
// the exact-zero spikes of ReLU activations).
func selectKth(buf []float32, k int) float32 {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		j := hoarePartition(buf, lo, hi)
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return buf[k]
}

// hoarePartition partitions buf[lo:hi+1] around a median-of-three pivot and
// returns j such that buf[lo..j] ≤ pivot ≤ buf[j+1..hi].
func hoarePartition(buf []float32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if buf[mid] < buf[lo] {
		buf[mid], buf[lo] = buf[lo], buf[mid]
	}
	if buf[hi] < buf[lo] {
		buf[hi], buf[lo] = buf[lo], buf[hi]
	}
	if buf[hi] < buf[mid] {
		buf[hi], buf[mid] = buf[mid], buf[hi]
	}
	pivot := buf[mid]
	i, j := lo-1, hi+1
	for {
		for {
			i++
			if buf[i] >= pivot {
				break
			}
		}
		for {
			j--
			if buf[j] <= pivot {
				break
			}
		}
		if i >= j {
			return j
		}
		buf[i], buf[j] = buf[j], buf[i]
	}
}

// Histogram buckets values into nbins equal-width bins over [min, max] and
// returns the counts plus the bin edges (nbins+1 values). Values outside
// the range are clamped into the first/last bin.
func Histogram(values []float32, nbins int, minV, maxV float32) (counts []int, edges []float32) {
	counts = make([]int, nbins)
	edges = make([]float32, nbins+1)
	width := (maxV - minV) / float32(nbins)
	for i := range edges {
		edges[i] = minV + float32(i)*width
	}
	if width <= 0 {
		return counts, edges
	}
	for _, v := range values {
		b := int((v - minV) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts, edges
}

// Logit returns log(p/(1-p)) with p clamped away from {0,1}.
func Logit(p float64) float64 {
	const eps = 1e-6
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return math.Log(p / (1 - p))
}

// Expit is the inverse of Logit.
func Expit(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// ArgsortDesc returns the indices that sort score in descending order,
// breaking ties by lower index.
func ArgsortDesc(score Vec) []int {
	idx := make([]int, len(score))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return score[idx[a]] > score[idx[b]] })
	return idx
}
