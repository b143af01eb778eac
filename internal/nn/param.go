// Package nn implements the neural-network substrate: linear, embedding,
// RMSNorm, gated-MLP and causal grouped-query attention layers, plus the
// Adam optimizer and binary parameter serialization. Each layer's forward
// is one token at a time (Apply, At, ApplyInto, Attention.Step), the step
// a decoder takes; its hand-written Backward takes a sequence's gradients
// and the inputs or records that forward left (MLPRecord, AttnRecord).
// There is no autograd graph — the model package composes these layers
// explicitly, which keeps the inner loops allocation-free and the gradient
// code auditable (and gradient-checked in the tests).
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one learnable weight matrix with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Mat
	G    *tensor.Mat
}

// NewParam allocates a named rows×cols parameter with zeroed weights and
// gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.NewMat(rows, cols), G: tensor.NewMat(rows, cols)}
}

// Init fills the weights with N(0, std²) noise.
func (p *Param) Init(rng *tensor.RNG, std float32) { p.W.RandNorm(rng, std) }

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Size returns the number of scalar weights.
func (p *Param) Size() int { return p.W.Rows * p.W.Cols }

// Module is anything owning parameters.
type Module interface {
	Params() []*Param
}

// CountParams sums the parameter sizes of a module.
func CountParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Size()
	}
	return n
}

// CheckFinite panics if any weight is NaN or Inf; used by tests and the
// training loop to fail fast on divergence.
func CheckFinite(m Module) error {
	for _, p := range m.Params() {
		for i, x := range p.W.Data {
			if x != x || x > 1e30 || x < -1e30 {
				return fmt.Errorf("nn: parameter %s has non-finite value at %d: %v", p.Name, i, x)
			}
		}
	}
	return nil
}
