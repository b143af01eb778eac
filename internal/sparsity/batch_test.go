package sparsity

import (
	"fmt"
	"testing"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// parityView is a deterministic fake CacheView: unit u of layer l is
// "cached" when (u+l+salt) is even. Different salts per session make the
// cache-aware reweighting genuinely per-column.
type parityView struct{ salt int }

func (v parityView) Resident(layer int, _ GroupID) []bool {
	return parityUnits[(layer+v.salt)%2:]
}

// parityUnits[u] is true for even u; its tail from 1 is true for odd u.
var parityUnits = func() []bool {
	res := make([]bool, 1025)
	for u := range res {
		res[u] = u%2 == 0
	}
	return res
}()

func batchCols(vecs []tensor.Vec) *tensor.Mat {
	m := tensor.NewMat(len(vecs[0]), len(vecs))
	for b, v := range vecs {
		m.SetCol(b, v)
	}
	return m
}

func accessEqual(a, b *TokenAccess) error {
	for g := GroupID(0); g < NumGroups; g++ {
		ga, gb := a.Groups[g], b.Groups[g]
		if ga.Kind != gb.Kind {
			return fmt.Errorf("group %v kind %v vs %v", g, ga.Kind, gb.Kind)
		}
		if len(ga.Units) != len(gb.Units) {
			return fmt.Errorf("group %v has %d vs %d units", g, len(ga.Units), len(gb.Units))
		}
		for i := range ga.Units {
			if ga.Units[i] != gb.Units[i] {
				return fmt.Errorf("group %v unit %d is %d vs %d (order matters)", g, i, ga.Units[i], gb.Units[i])
			}
		}
	}
	return nil
}

// For every scheme, Dense included, ForwardBatch must reproduce per-session
// Forward bit for bit: outputs, access kinds, and unit lists in order —
// with per-session parameters and per-session cache views differing across
// the batch.
func TestForwardBatchMatchesPerSessionForwardBitForBit(t *testing.T) {
	rng := tensor.NewRNG(21)
	mlp := nn.NewGLUMLP("m", 20, 60, nn.ActSiLU, rng)
	const B = 4
	thr := make([]float32, 3)
	for l := range thr {
		thr[l] = 0.02 * float32(l+1)
	}
	cases := []struct {
		name string
		mk   func(b int) Scheme
	}{
		{"dense", func(int) Scheme { return Dense{} }},
		{"dip", func(b int) Scheme { return NewDIP(0.4 + 0.1*float64(b)) }},
		{"dip-ca", func(b int) Scheme { return NewDIPCA(0.5, 0.2) }},
		{"glu", func(b int) Scheme { return &GLUPrune{RhoGLU: 0.3 + 0.1*float64(b)} }},
		{"glu-oracle", func(b int) Scheme { return &GLUOracle{Rho: 0.3 + 0.1*float64(b)} }},
		{"gate", func(b int) Scheme { return &GatePrune{Rho: 0.3 + 0.1*float64(b)} }},
		{"up", func(b int) Scheme { return &UpPrune{Rho: 0.3 + 0.1*float64(b)} }},
		{"cats", func(int) Scheme { return &GatePrune{Thresholds: thr} }},
		{"mixed-fallback", func(b int) Scheme {
			if b%2 == 0 {
				return NewDIP(0.5)
			}
			return &GLUPrune{RhoGLU: 0.4}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batchSchemes := make([]Scheme, B)
			soloSchemes := make([]Scheme, B)
			views := make([]CacheView, B)
			for b := 0; b < B; b++ {
				batchSchemes[b] = tc.mk(b)
				soloSchemes[b] = tc.mk(b)
				if b%2 == 1 { // mix nil and non-nil views across the batch
					views[b] = parityView{salt: b}
				}
			}
			var scratch BatchScratch
			out := tensor.NewMat(mlp.Dim, B)
			tas := make([]TokenAccess, B)
			for layer := 0; layer < 3; layer++ {
				xs := make([]tensor.Vec, B)
				for b := range xs {
					xs[b] = tensor.NewVec(mlp.Dim)
					for i := range xs[b] {
						xs[b][i] = rng.NormFloat32()
					}
				}
				ForwardBatch(layer, batchSchemes, batchCols(xs), mlp, views, out, tas, &scratch)
				for b := 0; b < B; b++ {
					want, wantTA := soloSchemes[b].Forward(layer, xs[b], mlp, views[b])
					for i := range want {
						if out.At(i, b) != want[i] {
							t.Fatalf("layer %d col %d: out[%d] = %v, single %v",
								layer, b, i, out.At(i, b), want[i])
						}
					}
					if err := accessEqual(&tas[b], &wantTA); err != nil {
						t.Fatalf("layer %d col %d: TokenAccess diverged: %v", layer, b, err)
					}
				}
			}
		})
	}
}

// Predictive schemes have no fused path; the fallback must still be
// bit-identical (it is literally per-column Forward).
func TestForwardBatchFallsBackForPredictive(t *testing.T) {
	rng := tensor.NewRNG(5)
	mlp := nn.NewGLUMLP("m", 12, 36, nn.ActSiLU, rng)
	score := func(layer int, x tensor.Vec) tensor.Vec {
		s := tensor.NewVec(mlp.DFF)
		for i := range s {
			s[i] = x[i%len(x)] * float32(layer+1)
		}
		return s
	}
	const B = 3
	schemes := make([]Scheme, B)
	solo := make([]Scheme, B)
	for b := range schemes {
		schemes[b] = &Predictive{Rho: 0.4, Score: score}
		solo[b] = &Predictive{Rho: 0.4, Score: score}
	}
	xs := make([]tensor.Vec, B)
	for b := range xs {
		xs[b] = tensor.NewVec(mlp.Dim)
		for i := range xs[b] {
			xs[b][i] = rng.NormFloat32()
		}
	}
	var scratch BatchScratch
	out := tensor.NewMat(mlp.Dim, B)
	tas := make([]TokenAccess, B)
	ForwardBatch(0, schemes, batchCols(xs), mlp, make([]CacheView, B), out, tas, &scratch)
	for b := range xs {
		want, wantTA := solo[b].Forward(0, xs[b], mlp, nil)
		for i := range want {
			if out.At(i, b) != want[i] {
				t.Fatalf("col %d out[%d] = %v, single %v", b, i, out.At(i, b), want[i])
			}
		}
		if err := accessEqual(&tas[b], &wantTA); err != nil {
			t.Fatalf("col %d: %v", b, err)
		}
	}
}

// An all-DIP batch is each column's own Forward on that scheme's own
// scratch, so after warm-up ForwardBatch allocates nothing — for plain DIP
// and for DIP-CA re-weighting against a cache view. The fused DIP path this
// replaced reallocated one score buffer twice per call (it flipped between
// dim and dff), which is what this pins against coming back.
func TestForwardBatchAllDIPDoesNotAllocate(t *testing.T) {
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	rng := tensor.NewRNG(9)
	mlp := nn.NewGLUMLP("m", 64, 192, nn.ActSiLU, rng)
	const B = 8
	xs := tensor.NewMat(mlp.Dim, B)
	for i := range xs.Data {
		xs.Data[i] = rng.NormFloat32()
	}
	for _, tc := range []struct {
		name string
		base *DIP
		view CacheView
	}{
		{"dip", NewDIP(0.5), nil},
		{"dip-ca", NewDIPCA(0.5, 0.2), parityView{salt: 1}},
	} {
		schemes := make([]Scheme, B)
		views := make([]CacheView, B)
		for b := range schemes {
			schemes[b] = Clone(tc.base)
			views[b] = tc.view
		}
		var scratch BatchScratch
		out := tensor.NewMat(mlp.Dim, B)
		tas := make([]TokenAccess, B)
		step := func() { ForwardBatch(0, schemes, xs, mlp, views, out, tas, &scratch) }
		step() // builds the weight mirrors, grows every scratch buffer
		step()
		if a := testing.AllocsPerRun(20, step); a != 0 {
			t.Errorf("%s: ForwardBatch allocates %v objects/call at batch %d, want 0", tc.name, a, B)
		}
	}
}

// A Dense column in a mixed batch computes into the batch scratch through
// ForwardColumn, so a Dense+DIP batch allocates nothing after warm-up
// either: the pruned columns run on their own scratch, the Dense ones on
// the one DenseScratch they share in turn.
func TestForwardBatchMixedDenseAndDIPAllocatesNothing(t *testing.T) {
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	rng := tensor.NewRNG(10)
	mlp := nn.NewGLUMLP("m", 64, 192, nn.ActSiLU, rng)
	const B = 4
	xs := tensor.NewMat(mlp.Dim, B)
	for i := range xs.Data {
		xs.Data[i] = rng.NormFloat32()
	}
	schemes := []Scheme{Dense{}, NewDIPCA(0.5, 0.2), Dense{}, NewDIP(0.5)}
	views := []CacheView{nil, parityView{salt: 1}, nil, nil}
	var scratch BatchScratch
	out := tensor.NewMat(mlp.Dim, B)
	tas := make([]TokenAccess, B)
	step := func() { ForwardBatch(0, schemes, xs, mlp, views, out, tas, &scratch) }
	step()
	for b, sc := range schemes {
		want, _ := sc.Forward(0, xs.Col(b, nil), mlp, views[b])
		for i := range want {
			if out.At(i, b) != want[i] {
				t.Fatalf("col %d: out[%d] = %v, its own Forward %v", b, i, out.At(i, b), want[i])
			}
		}
	}
	if a := testing.AllocsPerRun(20, step); a != 0 {
		t.Errorf("ForwardBatch allocates %v objects/call on a Dense+DIP batch, want 0", a)
	}
}
