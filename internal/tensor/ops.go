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

// TopKScratch holds the reusable key buffer of TopKIndicesInto.
type TopKScratch struct {
	keys []uint32
}

// TopKIndicesInto is TopKIndices with caller-owned storage: the selection's
// working copy comes from s and the result is written over idx[:0] (both may
// be nil to allocate; k ≤ 0 returns idx[:0], so a hot loop keeps its buffer).
// Each score becomes a uint32 key of the same order, kthLargestKey finds the
// k-th largest on the key copy, and one ascending sweep emits every index
// whose key is above that threshold plus the lowest-indexed ties at it.
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
		return idx[:0]
	}
	var local TopKScratch
	if s == nil {
		s = &local
	}
	s.keys = grow(s.keys, n)
	for i, v := range score {
		s.keys[i] = orderKey(v)
	}
	t, ties := kthLargestKey(s.keys, k)
	idx = grow(idx, k)
	for i, w := 0, 0; w < k; i++ {
		key := orderKey(score[i])
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

// orderKey maps v to a uint32 ordered like the scores top-K ranks: key(a) <
// key(b) exactly when a < b, −0 and +0 share a key, and every NaN gets key 0,
// below −Inf's. A non-negative float gets its sign bit set; a negative one
// has every bit flipped, so the larger magnitude is the smaller key.
func orderKey(v float32) uint32 {
	if v != v {
		return 0
	}
	b := math.Float32bits(v + 0) // −0 + 0 is +0
	return b ^ (uint32(int32(b)>>31) | 1<<31)
}

// above is 1 when a > b and 0 otherwise, without a branch.
func above(a, b uint32) int { return int((uint64(b) - uint64(a)) >> 63) }

// kthLargestKey returns the k-th largest of keys (1 ≤ k ≤ len(keys)) and how
// many of the keys equal to it are among the k largest. keys is overwritten.
// It is a three-way quickselect around a median-of-three pivot: one pass
// counts the keys above and below the pivot, a second compacts the side the
// k-th largest is on — or none when it is the pivot itself, which is how a
// run of equal scores (ReLU's exact zeros) ends in one round. Both passes are
// branch-free, so the cost does not depend on how predictable the scores are,
// and every round removes at least the pivot.
func kthLargestKey(keys []uint32, k int) (kth uint32, ties int) {
	for {
		x, y, z := keys[0], keys[len(keys)/2], keys[len(keys)-1]
		p := max(min(x, y), min(max(x, y), z))
		more, less := 0, 0
		for _, c := range keys {
			more += above(c, p)
			less += above(p, c)
		}
		// flip = 0 keeps the keys above p; all-ones reverses the key order, so
		// the same compaction keeps the keys below.
		var flip uint32
		if k > more {
			equal := len(keys) - more - less
			if k <= more+equal {
				return p, k - more
			}
			k -= more + equal
			flip = ^uint32(0)
		}
		w := 0
		for _, c := range keys {
			keys[w] = c
			w += above(c^flip, p^flip)
		}
		keys = keys[:w]
	}
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
		keys[i] = orderKey(v)
	}
	ka, _ := kthLargestKey(keys, n-lo) // the lo-th smallest
	// The next order statistic is ka again when it repeats past position lo,
	// else the smallest key above it.
	atMost, next := 0, ^uint32(0)
	for _, v := range values {
		if k := orderKey(v); k <= ka {
			atMost++
		} else if k < next {
			next = k
		}
	}
	a, frac := keyValue(ka), float32(pos-float64(lo))
	if lo+1 >= n || frac == 0 {
		return a
	}
	if atMost > lo+1 {
		next = ka
	}
	return a*(1-frac) + keyValue(next)*frac
}

// keyValue is the float orderKey(v) came from (+0 for either zero).
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
