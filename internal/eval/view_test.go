package eval

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/hwsim"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// viewGroups are the groups the view tests' plan holds: DIP's two.
var viewGroups = []sparsity.GroupID{sparsity.GroupUpGate, sparsity.GroupDown}

// spyScheme lists its column's units and keeps, per layer and group, a copy
// of the residency its masks would read and whether that slice was the
// cache's own. Its output is zero, so the decode around it stays finite.
type spyScheme struct {
	lists func(layer int) sparsity.TokenAccess
	mc    *cache.ModelCache
	saw   [][sparsity.NumGroups][]bool
	own   [][sparsity.NumGroups]bool
}

func (s *spyScheme) Name() string { return "spy" }

func (s *spyScheme) Forward(layer int, _ tensor.Vec, mlp *nn.GLUMLP, cv sparsity.CacheView) (tensor.Vec, sparsity.TokenAccess) {
	for _, g := range viewGroups {
		r := cv.Resident(layer, g)
		s.saw[layer][g] = slices.Clone(r)
		s.own[layer][g] = &r[0] == &s.mc.Resident(layer, g)[0]
	}
	return tensor.NewVec(mlp.Dim), s.lists(layer)
}

// viewUnit is column b's unit of group g at a layer: its own per column,
// layer and group (the test model's up/gate universe is 16, down's 32).
func viewUnit(b, layer int, g sparsity.GroupID) int {
	base := 4
	if g == sparsity.GroupDown {
		base = 16
	}
	return base + 4*layer + b
}

// viewColumn is column b's access at a layer: one unit of each group,
// except that column 1 reads the up/gate group densely at layer 0.
func viewColumn(b int) func(layer int) sparsity.TokenAccess {
	return func(layer int) sparsity.TokenAccess {
		var ta sparsity.TokenAccess
		for _, g := range viewGroups {
			ta.Groups[g] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{viewUnit(b, layer, g)}}
		}
		if b == 1 && layer == 0 {
			ta.Groups[sparsity.GroupUpGate] = sparsity.GroupAccess{Kind: sparsity.AccessDense}
		}
		return ta
	}
}

// A sub-step's column reads the shared cache as it was when the sub-step
// opened plus what the columns before it listed at the same layer and group
// (all of a group one of them read densely), and nothing else: not another
// layer's units, not a later column's, not a dense read of another group.
// Column 0 reads the cache's own slice. Fused and per-stream decode see the
// same, and after Commit a lone column reads the cache itself again.
func TestSubStepViewShowsEarlierColumnsOfALayerAndGroup(t *testing.T) {
	trained(t)
	var groups [sparsity.NumGroups]bool
	for _, g := range viewGroups {
		groups[g] = true
	}
	plan, err := hwsim.NewPlan(zoo.m, hwsim.A18Like(), hwsim.PlanOpts{Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	layers := len(zoo.m.Blocks)
	caps := make([][sparsity.NumGroups]int, layers)
	for l := range caps {
		for _, g := range viewGroups {
			caps[l][g] = 8
		}
	}
	cfg := SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLRU, Win: 8}
	for _, fused := range []bool{true, false} {
		mc := cache.NewModelCache(cache.PolicyLRU, caps, plan.NUnits)
		for l := range layers { // resident: unit l, and column 1's own unit
			var warm sparsity.TokenAccess
			for _, g := range viewGroups {
				warm.Groups[g] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{l, viewUnit(1, l, g)}}
			}
			mc.Access(l, &warm)
		}
		at := make([][sparsity.NumGroups][]bool, layers) // the residency the sub-step opens on
		for l := range at {
			for _, g := range viewGroups {
				at[l][g] = slices.Clone(mc.Resident(l, g))
			}
		}
		sts := make([]*Stream, 3)
		spies := make([]*spyScheme, len(sts))
		for b := range sts {
			spies[b] = &spyScheme{lists: viewColumn(b), mc: mc,
				saw: make([][sparsity.NumGroups][]bool, layers), own: make([][sparsity.NumGroups]bool, layers)}
			if sts[b], err = NewStreamWith(zoo.m, spies[b], zoo.test[:16], cfg, StreamOpts{Plan: plan, Cache: mc}); err != nil {
				t.Fatal(err)
			}
		}
		var v SubStepView
		v.Open(sts)
		if fused {
			BatchDecode(sts, new(BatchArena))
		} else {
			for _, st := range sts {
				st.Decode()
			}
		}
		for b, spy := range spies {
			for l := range layers {
				for _, g := range viewGroups {
					want := slices.Clone(at[l][g])
					for e := range b {
						acc := viewColumn(e)(l).Groups[g]
						for u := range want {
							want[u] = want[u] || acc.Kind == sparsity.AccessDense || slices.Contains(acc.Units, u)
						}
					}
					if !slices.Equal(spy.saw[l][g], want) {
						t.Fatalf("fused=%v: column %d at layer %d, %v saw %v, want %v", fused, b, l, g, trues(spy.saw[l][g]), trues(want))
					}
					if spy.own[l][g] != (b == 0) {
						t.Fatalf("fused=%v: column %d at layer %d, %v read the cache's own slice: %v", fused, b, l, g, spy.own[l][g])
					}
				}
			}
		}
		Commit(sts, plan.NewStep())
		lone := sts[2]
		if lone.view() != sparsity.CacheView(mc) {
			t.Fatalf("fused=%v: a committed stream reads %T, not its cache", fused, lone.view())
		}
		lone.Step()
		for l := range layers {
			for _, g := range viewGroups {
				if !spies[2].own[l][g] {
					t.Fatalf("fused=%v: a lone column at layer %d, %v did not read the cache's own slice", fused, l, g)
				}
			}
		}
	}
}

// trues lists the set elements of a residency slice.
func trues(r []bool) []int {
	var us []int
	for u, ok := range r {
		if ok {
			us = append(us, u)
		}
	}
	return us
}
