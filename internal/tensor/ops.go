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

// TopKIndices returns the indices of the k largest values of score in
// ascending index order. k is clamped to [0, len(score)]; k ≤ 0 selects
// nothing. Equal scores are kept lowest index first, with +0 and −0 equal;
// a NaN ranks below every number (−Inf included) and NaNs tie with each
// other. The selection is expected O(n): see TopKIndicesInto.
func TopKIndices(score Vec, k int) []int {
	return TopKIndicesInto(score, k, nil, nil)
}

// TopKScratch holds the reusable buffers of a top-K selection: the float
// form's key copy and the two sides each round partitions into.
type TopKScratch struct {
	keys, hi, lo []uint32
}

// TopKIndicesInto is TopKIndices with caller-owned storage: the selection's
// working copies come from s and the result is written over idx[:0] (both
// may be nil to allocate; k ≤ 0 returns idx[:0], so a hot loop keeps its
// buffer). Each score becomes its OrderKey and TopKKeysInto selects on those.
func TopKIndicesInto(score Vec, k int, s *TopKScratch, idx []int) []int {
	if s == nil {
		s = new(TopKScratch)
	}
	s.keys = grow(s.keys, len(score))
	for i, v := range score {
		s.keys[i] = OrderKey(v)
	}
	return TopKKeysInto(s.keys, k, s, idx)
}

// TopKKeysInto is TopKIndicesInto on scores already mapped through OrderKey:
// the indices of the k largest keys, ascending, the lower index first on
// equal keys. keys is only read; s and idx are as in TopKIndicesInto.
// kthLargestKey finds the k-th largest key, and one ascending sweep of keys
// emits every index above it plus the lowest-indexed ties at it.
func TopKKeysInto(keys []uint32, k int, s *TopKScratch, idx []int) []int {
	n := len(keys)
	if k >= n {
		idx = grow(idx, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	if k <= 0 {
		return idx[:0]
	}
	if s == nil {
		s = new(TopKScratch)
	}
	t, ties := kthLargestKey(keys, k, s)
	idx = grow(idx, k)
	for i, w := 0, 0; w < k; i++ {
		key := keys[i]
		idx[w] = i
		if key != t {
			w += above(key, t)
		} else if ties > 0 {
			ties--
			w++
		}
	}
	return idx
}

// OrderKey maps v to a uint32 ordered like the scores top-K ranks: key(a) <
// key(b) exactly when a < b, −0 and +0 share a key, and every NaN gets key 0,
// below −Inf's. A non-negative float gets its sign bit set; a negative one
// has every bit flipped, so the larger magnitude is the smaller key.
func OrderKey(v float32) uint32 {
	if v != v {
		return 0
	}
	b := math.Float32bits(v + 0) // −0 + 0 is +0
	return b ^ (uint32(int32(b)>>31) | 1<<31)
}

// above is 1 when a > b and 0 otherwise, without a branch.
func above(a, b uint32) int { return int((uint64(b) - uint64(a)) >> 63) }

// kthLargestKey returns the k-th largest of keys (1 ≤ k ≤ len(keys)) and how
// many of the keys equal to it are among the k largest; keys is only read. A
// three-way quickselect: the pivot is the first, middle or last key, the one
// whose rank among the three matches k's in the set, and one pass per round
// parts the keys above it (to s.hi) from those below (to s.lo). A round whose
// pivot is the k-th largest ends the selection, a run of equal keys (ReLU's
// exact zeros) at once, and every round removes at least the pivot.
func kthLargestKey(keys []uint32, k int, s *TopKScratch) (kth uint32, ties int) {
	s.hi, s.lo = grow(s.hi, len(keys)), grow(s.lo, len(keys))
	for {
		n := len(keys)
		x, y, z := keys[0], keys[n/2], keys[n-1]
		p := max(min(x, y), min(max(x, y), z))
		switch t := 3 * (k - 1); {
		case t < n:
			p = max(x, y, z)
		case t >= 2*n:
			p = min(x, y, z)
		}
		a, b := partition(keys, s.hi, s.lo, p)
		switch {
		case k <= a:
			keys = s.hi[:a]
		case k <= n-b:
			return p, k - a
		default:
			k -= n - b
			keys = s.lo[:b]
		}
	}
}

// partition copies the keys above p to hi and those below it to lo, in
// order and without a branch, and counts each. hi or lo may be keys itself:
// each write lands at or before the key just read. Out of line its counters
// stay in registers; inlined, they spill and a selection runs ~25% slower.
//
//go:noinline
func partition(keys, hi, lo []uint32, p uint32) (a, b int) {
	for _, c := range keys {
		hi[a] = c
		lo[b] = c
		a += above(c, p)
		b += above(p, c)
	}
	return a, b
}

// TopKAbsMask returns a boolean mask keeping the k largest-magnitude
// entries of x. This is the per-token top-K thresholding of Section 3.1.
// scratch, when non-nil and of matching length, holds the |x| scores and is
// overwritten — callers in per-token loops pass a reused buffer to avoid
// one allocation per call; pass nil to allocate internally.
func TopKAbsMask(x Vec, k int, scratch Vec) []bool {
	score := Reuse(scratch, len(x))
	for i, v := range x {
		score[i] = float32(math.Abs(float64(v)))
	}
	mask := make([]bool, len(x))
	for _, i := range TopKIndices(score, k) {
		mask[i] = true
	}
	return mask
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the values using linear
// interpolation between order statistics. The input is not modified. The
// order statistics come from the selection top-K uses (expected O(n) rather
// than a full sort); results are identical to the sort-based computation.
func Quantile(values []float32, q float64) float32 {
	n := len(values)
	if n == 0 {
		return 0
	}
	pos := min(max(q, 0), 1) * float64(n-1)
	lo := int(pos)
	keys := make([]uint32, n)
	for i, v := range values {
		keys[i] = OrderKey(v)
	}
	var s TopKScratch
	ka, _ := kthLargestKey(keys, n-lo, &s) // the lo-th smallest
	a, frac := keyValue(ka), float32(pos-float64(lo))
	if lo+1 >= n || frac == 0 {
		return a
	}
	kb, _ := kthLargestKey(keys, n-lo-1, &s) // the next order statistic
	return a*(1-frac) + keyValue(kb)*frac
}

// keyValue is the float OrderKey(v) came from (+0 for either zero).
func keyValue(k uint32) float32 {
	return math.Float32frombits(k ^ (uint32(int32(^k)>>31) | 1<<31))
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
