package hwsim

import (
	"math"
	"testing"

	"repro/internal/sparsity"
)

func TestApplyLayerWeights(t *testing.T) {
	m := testModel()
	p, err := NewPlan(m, A18Like(), PlanOpts{Groups: dipGroups()})
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([][sparsity.NumGroups]int, len(p.Caps))
	copy(uniform, p.Caps)
	// Skew everything toward layer 0.
	if err := p.ApplyLayerWeights([]float64{3, 1}); err != nil {
		t.Fatal(err)
	}
	if p.Caps[0][sparsity.GroupDown] <= uniform[0][sparsity.GroupDown] {
		t.Fatalf("layer 0 capacity did not grow: %d vs %d",
			p.Caps[0][sparsity.GroupDown], uniform[0][sparsity.GroupDown])
	}
	if p.Caps[1][sparsity.GroupDown] >= uniform[1][sparsity.GroupDown] {
		t.Fatalf("layer 1 capacity did not shrink: %d vs %d",
			p.Caps[1][sparsity.GroupDown], uniform[1][sparsity.GroupDown])
	}
	// Total capacity bytes conserved within rounding.
	bytesOf := func(caps [][sparsity.NumGroups]int) float64 {
		var total float64
		for l := range caps {
			for g := sparsity.GroupID(0); g < sparsity.NumGroups; g++ {
				total += float64(caps[l][g]) * p.UnitBytes(g)
			}
		}
		return total
	}
	before, after := bytesOf(uniform), bytesOf(p.Caps)
	if math.Abs(before-after) > 0.1*before {
		t.Fatalf("budget not conserved: %v -> %v", before, after)
	}
}

func TestApplyLayerWeightsValidation(t *testing.T) {
	m := testModel()
	p, _ := NewPlan(m, A18Like(), PlanOpts{Groups: dipGroups()})
	if err := p.ApplyLayerWeights([]float64{1}); err == nil {
		t.Fatal("expected length error")
	}
	if err := p.ApplyLayerWeights([]float64{-1, 1}); err == nil {
		t.Fatal("expected negativity error")
	}
	if err := p.ApplyLayerWeights([]float64{0, 0}); err == nil {
		t.Fatal("expected all-zero error")
	}
}
