// Package sparsity implements the paper's core contribution: dynamic
// sparsification schemes for gated-MLP blocks. It provides the baselines of
// Section 3 (GLU / Gate / Up / predictive-GLU pruning, CATS), the proposed
// Dynamic Input Pruning (Section 4), and the cache-aware re-weighting of
// Section 5 (Eq. 10 / Algorithm 1), plus the calibration utilities for
// thresholds and for the up/gate/down density allocation of Appendix B.1.
//
// A Scheme computes the sparse MLP output for one token at one layer and
// reports a TokenAccess: exactly which weight units it touched, grouped the
// way a weight cache would fetch them. The hardware simulator replays those
// accesses to price the token in DRAM/Flash traffic; the evaluation harness
// also integrates them into measured MLP density.
package sparsity

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// GroupID identifies a cacheable weight group within one MLP layer. A
// scheme prunes each matrix along one axis only, so the unit universe per
// group is fixed:
//
//   - GroupUpGate: units are input dimensions; unit i is column i of W_u
//     plus column i of W_g fetched as a bundle (2·dff weights). Used by
//     input-pruning schemes (DIP).
//   - GroupUpRows / GroupGateRows: units are intermediate (GLU) dimensions;
//     unit i is row i of the matrix (dim weights). Used by schemes that
//     prune on GLU-axis structure (Gate/Up/predictive pruning, CATS).
//   - GroupDown: units are intermediate dimensions; unit i is column i of
//     W_d (dim weights). Used by every scheme.
type GroupID int

const (
	GroupUpGate GroupID = iota
	GroupUpRows
	GroupGateRows
	GroupDown
	NumGroups
)

// String names the group.
func (g GroupID) String() string {
	switch g {
	case GroupUpGate:
		return "upgate-cols"
	case GroupUpRows:
		return "up-rows"
	case GroupGateRows:
		return "gate-rows"
	case GroupDown:
		return "down-cols"
	default:
		return "invalid"
	}
}

// GroupUnits returns the number of units group g has for an MLP of the
// given dimensions, and the number of scalar weights per unit.
func GroupUnits(g GroupID, dim, dff int) (units, weightsPerUnit int) {
	switch g {
	case GroupUpGate:
		return dim, 2 * dff
	case GroupUpRows, GroupGateRows:
		return dff, dim
	case GroupDown:
		return dff, dim
	default:
		return 0, 0
	}
}

// AccessKind classifies how a scheme touched a group this token.
type AccessKind int

const (
	// AccessUnused means the scheme never touches this group (its weights
	// are represented by another group or not stored at all).
	AccessUnused AccessKind = iota
	// AccessDense means every unit of the group was read.
	AccessDense
	// AccessSparse means only the listed units were read.
	AccessSparse
)

// GroupAccess records one group's usage for one token.
type GroupAccess struct {
	Kind AccessKind
	// Units, valid when Kind == AccessSparse, lists the units read in
	// ascending order (a top-K selection or an in-order threshold sweep).
	Units []int
}

// TokenAccess records the weight traffic of one MLP evaluation.
type TokenAccess struct {
	Groups [NumGroups]GroupAccess
}

// WeightsTouched returns how many scalar weights the access reads for an
// MLP with the given dimensions.
func (ta *TokenAccess) WeightsTouched(dim, dff int) int {
	total := 0
	for g := GroupID(0); g < NumGroups; g++ {
		acc := ta.Groups[g]
		units, per := GroupUnits(g, dim, dff)
		switch acc.Kind {
		case AccessDense:
			total += units * per
		case AccessSparse:
			total += len(acc.Units) * per
		}
	}
	return total
}

// Density returns WeightsTouched over the full MLP weight count 3·dim·dff.
func (ta *TokenAccess) Density(dim, dff int) float64 {
	return float64(ta.WeightsTouched(dim, dff)) / float64(3*dim*dff)
}

// Kept returns the input columns and the GLU units the access kept,
// ascending, each nil when the scheme kept all of them: the masks of
// nn.MLPRecord. The lists alias the access's.
func (ta *TokenAccess) Kept() (in, glu []int) {
	if g := ta.Groups[GroupUpGate]; g.Kind == AccessSparse {
		in = g.Units
	}
	if g := ta.Groups[GroupDown]; g.Kind == AccessSparse {
		glu = g.Units
	}
	return in, glu
}

// CacheView exposes the DRAM cache state to cache-aware schemes. A nil
// CacheView reduces DIP-CA to DIP.
type CacheView interface {
	// Resident returns the residency of group g at the given layer: element
	// u is true while unit u resides in DRAM. The slice is read-only and
	// current until the next access: the cache's own, or, for a column of a
	// shared sub-step, a view that also marks what earlier columns listed
	// (eval.SubStepView). A nil or short slice means the units beyond it are
	// not resident.
	Resident(layer int, g GroupID) []bool
}

// Scheme computes a sparse MLP forward pass for single tokens.
type Scheme interface {
	// Name identifies the scheme in tables and logs.
	Name() string
	// Forward computes the MLP output for x at the given layer and reports
	// the weight units it read. cache may be nil; only cache-aware schemes
	// consult it. Every TokenAccess.Units list is ascending. The returned
	// vector and the Units lists may alias the scheme's scratch (every
	// StatefulScheme's do): they stay valid until the next Forward on the
	// same scheme, so a caller that keeps them across calls copies them — the
	// rule BatchScratch states for ForwardBatch.
	Forward(layer int, x tensor.Vec, mlp *nn.GLUMLP, cache CacheView) (tensor.Vec, TokenAccess)
}

// StatefulScheme is implemented by schemes that carry per-call scratch
// buffers (and are therefore not safe for concurrent Forward calls). A
// parallel evaluation clones one such scheme per worker via Clone.
type StatefulScheme interface {
	Scheme
	// CloneStateless returns a copy sharing the scheme's configuration and
	// calibration but none of its scratch state.
	CloneStateless() Scheme
}

// Clone returns a Scheme safe to use from another goroutine: stateful
// schemes are copied without their scratch, stateless ones are returned
// as-is. Calibration data (thresholds, predictor weights) is shared — it is
// read-only during Forward.
func Clone(s Scheme) Scheme {
	if s == nil {
		return nil
	}
	if cs, ok := s.(StatefulScheme); ok {
		return cs.CloneStateless()
	}
	return s
}

// Dense is the no-pruning baseline.
type Dense struct{}

// Name implements Scheme.
func (Dense) Name() string { return "dense" }

// Forward implements Scheme: the full MLP, reading every weight, into a
// fresh output. Decode loops call ForwardColumn instead, which gives Dense
// caller-owned storage.
func (Dense) Forward(_ int, x tensor.Vec, mlp *nn.GLUMLP, _ CacheView) (tensor.Vec, TokenAccess) {
	return mlp.Apply(x), denseAccess
}

// denseAccess is every Dense evaluation's access record: all three
// matrices, reported on the row-axis groups (the natural storage layout).
var denseAccess = TokenAccess{Groups: [NumGroups]GroupAccess{
	GroupUpRows:   {Kind: AccessDense},
	GroupGateRows: {Kind: AccessDense},
	GroupDown:     {Kind: AccessDense},
}}

// keepCount converts a density ρ into a unit count over n units, clamped
// to [1, n] so a scheme never prunes everything.
func keepCount(rho float64, n int) int {
	k := int(float64(rho*float64(n)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// abs is |v| with the sign bit cleared (−0 becomes +0, which ranks and
// compares the same), so taking it is no branch.
func abs(v float32) float32 { return math.Float32frombits(math.Float32bits(v) &^ (1 << 31)) }
