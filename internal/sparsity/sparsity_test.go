package sparsity

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func newTestMLP(seed uint64, dim, dff int, act nn.Activation) *nn.GLUMLP {
	rng := tensor.NewRNG(seed)
	return nn.NewGLUMLP("m", dim, dff, act, rng)
}

func randVec(seed uint64, n int) tensor.Vec {
	rng := tensor.NewRNG(seed)
	v := tensor.NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat32()
	}
	return v
}

func vecClose(a, b tensor.Vec, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > tol {
			return false
		}
	}
	return true
}

func TestDenseMatchesMLP(t *testing.T) {
	mlp := newTestMLP(1, 8, 16, nn.ActSiLU)
	x := randVec(2, 8)
	y, ta := Dense{}.Forward(0, x, mlp, nil)
	want := mlp.Apply(x)
	if !vecClose(y, want, 1e-6) {
		t.Fatal("dense scheme diverges from MLP")
	}
	if d := ta.Density(8, 16); math.Abs(d-1) > 1e-9 {
		t.Fatalf("dense density = %v, want 1", d)
	}
}

// All schemes at keep fraction 1 must reproduce the dense output exactly.
func TestSchemesAtFullDensityMatchDense(t *testing.T) {
	mlp := newTestMLP(3, 8, 16, nn.ActSiLU)
	pred := func(layer int, x tensor.Vec) tensor.Vec { return tensor.NewVec(16) }
	schemes := []Scheme{
		&GLUPrune{RhoGLU: 1},
		&GLUOracle{Rho: 1},
		&GatePrune{Rho: 1},
		&UpPrune{Rho: 1},
		&Predictive{Rho: 1, Score: pred},
		&DIP{RhoIn: 1, RhoGLU: 1, Gamma: 1},
		&GatePrune{Thresholds: []float32{0}}, // threshold 0 keeps everything
		&GLUPrune{Thresholds: []float32{0}},
	}
	x := randVec(4, 8)
	want := mlp.Apply(x)
	for _, s := range schemes {
		y, ta := s.Forward(0, x, mlp, nil)
		if !vecClose(y, want, 1e-4) {
			t.Fatalf("%s at full density diverges from dense", s.Name())
		}
		if d := ta.Density(8, 16); math.Abs(d-1) > 0.01 {
			t.Fatalf("%s at full density reports density %v", s.Name(), d)
		}
	}
}

// GLU pruning keeping k largest must equal zeroing the rest of GLU(x).
func TestGLUPruneExactness(t *testing.T) {
	f := func(seed uint64) bool {
		mlp := newTestMLP(seed, 6, 12, nn.ActSiLU)
		x := randVec(seed+1, 6)
		s := &GLUPrune{RhoGLU: 0.5}
		y, ta := s.Forward(0, x, mlp, nil)
		// Reference: dense GLU, keep top 6 by |h|, then dense W_d.
		h := mlp.GLU(x, nil)
		mask := tensor.TopKAbsMask(h, 6, nil)
		for i := range h {
			if !mask[i] {
				h[i] = 0
			}
		}
		want := tensor.MatVec(mlp.Down.P.W, h, nil)
		if !vecClose(y, want, 1e-4) {
			return false
		}
		// Density = (2 + 0.5)/3.
		return math.Abs(ta.Density(6, 12)-(2+0.5)/3) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGLUOracleOutputsEqualGLUPrune(t *testing.T) {
	mlp := newTestMLP(5, 8, 16, nn.ActSiLU)
	x := randVec(6, 8)
	a, taA := (&GLUPrune{RhoGLU: 0.5}).Forward(0, x, mlp, nil)
	b, taB := (&GLUOracle{Rho: 0.5}).Forward(0, x, mlp, nil)
	if !vecClose(a, b, 1e-5) {
		t.Fatal("oracle output should equal GLU pruning output")
	}
	// But the oracle touches far fewer weights.
	if taB.WeightsTouched(8, 16) >= taA.WeightsTouched(8, 16) {
		t.Fatal("oracle should touch fewer weights than GLU pruning")
	}
	if d := taB.Density(8, 16); math.Abs(d-0.5) > 0.01 {
		t.Fatalf("oracle density = %v, want 0.5", d)
	}
}

func TestGatePruneDensity(t *testing.T) {
	mlp := newTestMLP(7, 8, 16, nn.ActSiLU)
	x := randVec(8, 8)
	_, ta := (&GatePrune{Rho: 0.25}).Forward(0, x, mlp, nil)
	want := (1 + 2*0.25) / 3
	if d := ta.Density(8, 16); math.Abs(d-want) > 0.01 {
		t.Fatalf("gate density = %v, want %v", d, want)
	}
}

func TestUpPruneUsesUpScores(t *testing.T) {
	mlp := newTestMLP(9, 6, 10, nn.ActSiLU)
	x := randVec(10, 6)
	y, ta := (&UpPrune{Rho: 0.5}).Forward(0, x, mlp, nil)
	// Reference: keep top |W_u x| rows.
	u := tensor.MatVec(mlp.Up.P.W, x, nil)
	idx := tensor.TopKIndices(absOf(u), 5)
	h := tensor.NewVec(10)
	g := tensor.MatVec(mlp.Gate.P.W, x, nil)
	for _, i := range idx {
		h[i] = u[i] * mlp.Act.Apply(g[i])
	}
	want := tensor.MatVec(mlp.Down.P.W, h, nil)
	if !vecClose(y, want, 1e-4) {
		t.Fatal("up pruning output mismatch")
	}
	if ta.Groups[GroupUpRows].Kind != AccessDense {
		t.Fatal("up pruning should read W_u densely")
	}
}

func TestPredictiveUsesScores(t *testing.T) {
	mlp := newTestMLP(11, 6, 8, nn.ActSiLU)
	x := randVec(12, 6)
	// A predictor that always scores unit 3 highest.
	pred := func(layer int, xx tensor.Vec) tensor.Vec {
		s := tensor.NewVec(8)
		s[3] = 10
		return s
	}
	y, ta := (&Predictive{Rho: 1.0 / 8, Score: pred}).Forward(0, x, mlp, nil)
	// Only unit 3 active.
	u := tensor.Vec(mlp.Up.P.W.Data[3*6 : 4*6]).Dot(x)
	g := tensor.Vec(mlp.Gate.P.W.Data[3*6 : 4*6]).Dot(x)
	h3 := u * mlp.Act.Apply(g)
	want := mlp.Down.P.W.Col(3, nil)
	want.Scale(h3)
	if !vecClose(y, want, 1e-4) {
		t.Fatal("predictive output mismatch")
	}
	if got := ta.Groups[GroupDown].Units; len(got) != 1 || got[0] != 3 {
		t.Fatalf("predictive access = %v", got)
	}
}

func TestCATSVariableDensity(t *testing.T) {
	mlp := newTestMLP(13, 8, 16, nn.ActSiLU)
	s := &GatePrune{Thresholds: []float32{0.2}}
	// Different inputs give different kept counts.
	n1 := len(mustAccess(t, s, mlp, randVec(14, 8)).Groups[GroupDown].Units)
	n2 := len(mustAccess(t, s, mlp, randVec(15, 8)).Groups[GroupDown].Units)
	n3 := len(mustAccess(t, s, mlp, randVec(16, 8)).Groups[GroupDown].Units)
	if n1 == n2 && n2 == n3 {
		t.Fatalf("CATS keep counts identical (%d); expected variation", n1)
	}
	// A huge threshold still keeps at least one unit.
	s2 := &GatePrune{Thresholds: []float32{1e9}}
	if n := len(mustAccess(t, s2, mlp, randVec(17, 8)).Groups[GroupDown].Units); n != 1 {
		t.Fatalf("CATS with huge threshold kept %d units, want 1", n)
	}
}

func mustAccess(t *testing.T, s Scheme, mlp *nn.GLUMLP, x tensor.Vec) TokenAccess {
	t.Helper()
	_, ta := s.Forward(0, x, mlp, nil)
	return ta
}

func TestDIPDensityMatchesTarget(t *testing.T) {
	for _, target := range []float64{0.3, 0.4, 0.5, 0.6, 0.8} {
		s := NewDIP(target)
		if got := s.TargetDensity(); math.Abs(got-target) > 0.02 {
			t.Fatalf("allocation for %v gives density %v", target, got)
		}
		mlp := newTestMLP(19, 32, 64, nn.ActSiLU)
		x := randVec(20, 32)
		_, ta := s.Forward(0, x, mlp, nil)
		if got := ta.Density(32, 64); math.Abs(got-target) > 0.05 {
			t.Fatalf("measured density %v for target %v", got, target)
		}
	}
}

func TestDIPApproximationImprovesWithDensity(t *testing.T) {
	// Averaged over inputs, lower density must mean higher approximation
	// error (pointwise monotonicity is not guaranteed because the GLU
	// approximation is nonlinear in the input mask).
	mlp := newTestMLP(21, 16, 32, nn.ActSiLU)
	const nInputs = 32
	avgErr := func(target float64) float64 {
		s := NewDIP(target)
		var total float64
		for i := 0; i < nInputs; i++ {
			x := randVec(uint64(100+i), 16)
			dense := mlp.Apply(x)
			y, _ := s.Forward(0, x, mlp, nil)
			for j := range y {
				d := float64(y[j] - dense[j])
				total += d * d
			}
		}
		return total / nInputs
	}
	e25, e50, e75, e100 := avgErr(0.25), avgErr(0.5), avgErr(0.75), avgErr(1.0)
	if !(e25 > e50 && e50 > e75 && e75 > e100) {
		t.Fatalf("DIP error not decreasing in density: %.4g %.4g %.4g %.4g", e25, e50, e75, e100)
	}
	if e100 > 1e-8 {
		t.Fatalf("DIP at density 1 has error %v", e100)
	}
}

// A fake cache view for DIP-CA tests.
type fakeCache struct{ cached map[[3]int]bool }

func (f *fakeCache) Resident(layer int, g GroupID) []bool {
	res := make([]bool, 128)
	for u := range res {
		res[u] = f.cached[[3]int{layer, int(g), u}]
	}
	return res
}

func TestDIPCAPrefersCachedUnits(t *testing.T) {
	mlp := newTestMLP(23, 16, 32, nn.ActSiLU)
	x := randVec(24, 16)
	plain := &DIP{RhoIn: 0.5, RhoGLU: 0.5, Gamma: 1}
	_, taPlain := plain.Forward(0, x, mlp, nil)
	// Cache exactly the complement of the plain selection on the input
	// side, with a strong penalty: DIP-CA should now pick mostly cached
	// units whose magnitudes are only slightly smaller.
	selected := map[int]bool{}
	for _, u := range taPlain.Groups[GroupUpGate].Units {
		selected[u] = true
	}
	fc := &fakeCache{cached: map[[3]int]bool{}}
	for i := 0; i < 16; i++ {
		if !selected[i] {
			fc.cached[[3]int{0, int(GroupUpGate), i}] = true
		}
	}
	ca := &DIP{RhoIn: 0.5, RhoGLU: 0.5, Gamma: 0.01}
	_, taCA := ca.Forward(0, x, mlp, fc)
	hits := 0
	for _, u := range taCA.Groups[GroupUpGate].Units {
		if fc.cached[[3]int{0, int(GroupUpGate), u}] {
			hits++
		}
	}
	if hits < 6 { // 8 selected, complement has 8 cached candidates
		t.Fatalf("DIP-CA selected only %d cached units under strong penalty", hits)
	}
}

func TestDIPCAGammaOneEqualsDIP(t *testing.T) {
	mlp := newTestMLP(25, 12, 24, nn.ActSiLU)
	x := randVec(26, 12)
	fc := &fakeCache{cached: map[[3]int]bool{{0, int(GroupUpGate), 0}: true}}
	ca := NewDIPCA(0.5, 1)
	a, _ := ca.Forward(0, x, mlp, fc)
	b, _ := NewDIP(0.5).Forward(0, x, mlp, nil)
	if !vecClose(a, b, 1e-6) {
		t.Fatal("gamma=1 DIP-CA should equal plain DIP")
	}
	if ca.Name() != "dip" || ReadsCache(ca) {
		t.Fatalf("gamma=1 DIP-CA is named %q and reads the cache: %v; want plain DIP", ca.Name(), ReadsCache(ca))
	}
}

func TestDIPCANilCacheEqualsDIP(t *testing.T) {
	mlp := newTestMLP(27, 12, 24, nn.ActSiLU)
	x := randVec(28, 12)
	a, _ := NewDIPCA(0.5, 0.2).Forward(0, x, mlp, nil)
	b, _ := NewDIP(0.5).Forward(0, x, mlp, nil)
	if !vecClose(a, b, 1e-6) {
		t.Fatal("DIP-CA with nil cache should equal DIP")
	}
}

// Both stages hand out their units in ascending order, plain and
// cache-aware, with and without a cache to read.
func TestDIPForwardReturnsAscendingUnits(t *testing.T) {
	mlp := newTestMLP(29, 32, 96, nn.ActSiLU)
	fc := &fakeCache{cached: map[[3]int]bool{}}
	for i := 0; i < 96; i += 3 {
		fc.cached[[3]int{0, int(GroupUpGate), i % 32}] = true
		fc.cached[[3]int{0, int(GroupDown), i}] = true
	}
	for _, s := range []*DIP{NewDIP(0.5), NewDIPCA(0.5, 0.2)} {
		for _, view := range []CacheView{nil, fc} {
			for tok := uint64(0); tok < 4; tok++ {
				_, ta := s.Forward(0, randVec(60+tok, 32), mlp, view)
				for _, g := range []GroupID{GroupUpGate, GroupDown} {
					units := ta.Groups[g].Units
					if len(units) == 0 || !sort.IntsAreSorted(units) {
						t.Fatalf("%s cache=%v token %d %v: units %v, want a non-empty ascending list", s.Name(), view != nil, tok, g, units)
					}
				}
			}
		}
	}
}

// The score's keys are those of Eq. 10 as the three passes it replaced
// computed it — |x|, then ‖x‖∞, then ·(w·inv) — to the bit, −0 and an
// all-zero token included, for resident, non-resident and out-of-slice units.
func TestDIPScoreMatchesThreePassReference(t *testing.T) {
	s := NewDIPCA(0.5, 0.2)
	fc := &fakeCache{cached: map[[3]int]bool{{0, int(GroupDown), 1}: true, {0, int(GroupDown), 4}: true}}
	negZero := float32(math.Copysign(0, -1))
	for _, src := range []tensor.Vec{{-3, 0.5, negZero, 2, -0.25, 7, -7}, {0, negZero, 0}, randVec(61, 200)} {
		want := absOf(src)
		var norm float32
		for _, a := range want {
			norm = max(norm, a)
		}
		if norm == 0 {
			norm = 1
		}
		inv := 1 / norm
		for i := range want {
			w := float32(s.Gamma)
			if fc.cached[[3]int{0, int(GroupDown), i}] {
				w = 1
			}
			want[i] *= w * inv
		}
		got := s.score(src, make([]uint32, len(src)), 0, GroupDown, fc)
		for i := range want {
			if got[i] != tensor.OrderKey(want[i]) {
				t.Fatalf("key[%d] of %v = %#x, three-pass reference %v has key %#x", i, src, got[i], want[i], tensor.OrderKey(want[i]))
			}
		}
	}
}

func TestAllocateDIPConstraint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		target := 0.05 + 0.9*rng.Float64()
		rin, rglu := AllocateDIP(target)
		if rin <= 0 || rin > 1 || rglu <= 0 || rglu > 1 {
			return false
		}
		return math.Abs((2*rin+rglu)/3-target) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// The calibrated allocation (Appendix B.1, regenerated by fig12) gives
	// the input side more density than the down projection at mid-range
	// sparsity: pruning residual-stream coordinates is the more damaging
	// approximation on the trained analogs.
	rin, rglu := AllocateDIP(0.5)
	if rin <= rglu {
		t.Fatalf("expected rhoIn > rhoGLU at 50%% density, got %v vs %v", rin, rglu)
	}
}

func TestAllocateDIPExtremes(t *testing.T) {
	rin, rglu := AllocateDIP(0)
	if rin <= 0 || rglu <= 0 {
		t.Fatal("zero target must not zero the allocation")
	}
	rin, rglu = AllocateDIP(1)
	if rin != 1 || rglu != 1 {
		t.Fatal("full target should keep everything")
	}
}

func TestGroupUnits(t *testing.T) {
	u, per := GroupUnits(GroupUpGate, 8, 16)
	if u != 8 || per != 32 {
		t.Fatalf("upgate units=%d per=%d", u, per)
	}
	u, per = GroupUnits(GroupDown, 8, 16)
	if u != 16 || per != 8 {
		t.Fatalf("down units=%d per=%d", u, per)
	}
	// Sum over a full-density access must equal 3*dim*dff.
	var ta TokenAccess
	ta.Groups[GroupUpRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupGateRows] = GroupAccess{Kind: AccessDense}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessDense}
	if got := ta.WeightsTouched(8, 16); got != 3*8*16 {
		t.Fatalf("dense access weights = %d", got)
	}
	// Same total via the upgate representation.
	var ta2 TokenAccess
	all := make([]int, 8)
	for i := range all {
		all[i] = i
	}
	ta2.Groups[GroupUpGate] = GroupAccess{Kind: AccessDense}
	ta2.Groups[GroupDown] = GroupAccess{Kind: AccessDense}
	if got := ta2.WeightsTouched(8, 16); got != 3*8*16 {
		t.Fatalf("upgate dense access weights = %d", got)
	}
}

func TestGroupIDStrings(t *testing.T) {
	seen := map[string]bool{}
	for g := GroupID(0); g < NumGroups; g++ {
		s := g.String()
		if s == "invalid" || seen[s] {
			t.Fatalf("bad group name %q", s)
		}
		seen[s] = true
	}
}

// Kept reads the masks off the two groups that carry them: the input
// columns off GroupUpGate and the GLU units off GroupDown, nil for all.
func TestTokenAccessKept(t *testing.T) {
	var ta TokenAccess
	ta.Groups[GroupUpGate] = GroupAccess{Kind: AccessSparse, Units: []int{1, 3}}
	ta.Groups[GroupDown] = GroupAccess{Kind: AccessSparse, Units: []int{0, 2}}
	if in, glu := ta.Kept(); !slices.Equal(in, []int{1, 3}) || !slices.Equal(glu, []int{0, 2}) {
		t.Fatalf("sparse access: Kept() = %v, %v", in, glu)
	}
	if in, glu := denseAccess.Kept(); in != nil || glu != nil {
		t.Fatalf("dense access: Kept() = %v, %v, want nil, nil", in, glu)
	}
	// Gate pruning reads every input column but on no column group.
	_, ta = (&GatePrune{Rho: 0.5}).Forward(0, randVec(1, 8), newTestMLP(1, 8, 16, nn.ActSiLU), nil)
	if in, glu := ta.Kept(); in != nil || len(glu) != 8 {
		t.Fatalf("gate access: Kept() = %v, %v, want nil and 8 units", in, glu)
	}
}

func TestParetoFront(t *testing.T) {
	trials := []AllocTrial{
		{Density: 0.3, PPL: 10},
		{Density: 0.3, PPL: 8},  // dominates previous
		{Density: 0.5, PPL: 9},  // dominated (higher density, higher ppl than 8)
		{Density: 0.5, PPL: 6},  // on front
		{Density: 0.7, PPL: 6},  // dominated (same ppl, more density)
		{Density: 0.8, PPL: 5},  // on front
		{Density: 0.9, PPL: 50}, // dominated
	}
	front := ParetoFront(trials)
	if len(front) != 3 {
		t.Fatalf("front = %+v", front)
	}
	if front[0].PPL != 8 || front[1].PPL != 6 || front[2].PPL != 5 {
		t.Fatalf("front wrong: %+v", front)
	}
}

func TestFitLogitLinearRecoversLine(t *testing.T) {
	// Generate points exactly on logit(rin) = 0.5 + 1.2*logit(d).
	var front []AllocTrial
	for _, d := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
		rin := tensor.Expit(0.5 + 1.2*tensor.Logit(d))
		front = append(front, AllocTrial{Density: d, RhoIn: rin})
	}
	a, b := FitLogitLinear(front)
	if math.Abs(a-0.5) > 1e-6 || math.Abs(b-1.2) > 1e-6 {
		t.Fatalf("fit = (%v, %v), want (0.5, 1.2)", a, b)
	}
}

func TestFittedAllocatorConstraint(t *testing.T) {
	alloc := FittedAllocator{A: 0.3, B: 1.1}
	for _, d := range []float64{0.2, 0.4, 0.5, 0.7, 0.9} {
		rin, rglu := alloc.Allocate(d)
		if rin < 0.02 || rin > 1 || rglu < 0.02 || rglu > 1 {
			t.Fatalf("allocation out of range: %v %v", rin, rglu)
		}
	}
	if rin, _ := alloc.Allocate(0); rin <= 0 {
		t.Fatal("zero target should clamp")
	}
	if rin, rglu := alloc.Allocate(1); rin != 1 || rglu != 1 {
		t.Fatal("unit target should keep everything")
	}
}

func TestFitLogitLinearDegenerate(t *testing.T) {
	if _, b := FitLogitLinear(nil); b != 1 {
		t.Fatal("empty fit should default slope 1")
	}
	one := []AllocTrial{{Density: 0.5, RhoIn: 0.4}}
	a, b := FitLogitLinear(one)
	if b != 1 {
		t.Fatal("single-point fit should default slope 1")
	}
	// The single point must lie on the returned line.
	got := tensor.Expit(a + b*tensor.Logit(0.5))
	if math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("single-point fit misses the point: %v", got)
	}
	same := []AllocTrial{{Density: 0.5, RhoIn: 0.3}, {Density: 0.5, RhoIn: 0.31}}
	FitLogitLinear(same) // must not panic on zero x-variance
}

// Figure 4's strategies are GLUPrune: a threshold of 0 keeps every unit,
// and a threshold no |h_i| reaches keeps the strongest unit, as CATS does
// (the GLUThreshold scheme this replaced zeroed the output there).
func TestGLUThresholdModes(t *testing.T) {
	mlp := newTestMLP(31, 8, 16, nn.ActSiLU)
	x := randVec(32, 8)
	y, ta := (&GLUPrune{Thresholds: []float32{0}}).Forward(0, x, mlp, nil)
	if !vecClose(y, mlp.Apply(x), 1e-5) {
		t.Fatal("zero threshold should be dense")
	}
	if n := len(ta.Groups[GroupDown].Units); n != 16 {
		t.Fatalf("zero threshold kept %d of 16 units", n)
	}
	h := mlp.GLU(x, nil)
	best := 0
	for i := range h {
		if abs(h[i]) > abs(h[best]) {
			best = i
		}
	}
	y2, ta2 := (&GLUPrune{Thresholds: []float32{1e9}}).Forward(0, x, mlp, nil)
	if units := ta2.Groups[GroupDown].Units; len(units) != 1 || units[0] != best {
		t.Fatalf("huge threshold kept %v, want only the strongest unit %d", units, best)
	}
	if want := tensor.MatVecSparse(mlp.Down.P.W, h, []int{best}, nil); !vecClose(y2, want, 0) {
		t.Fatal("huge threshold should output the strongest unit's W_d column alone")
	}
}

func TestKeepCount(t *testing.T) {
	if keepCount(0.5, 10) != 5 {
		t.Fatal("keepCount 0.5/10")
	}
	if keepCount(0, 10) != 1 {
		t.Fatal("keepCount floor")
	}
	if keepCount(2, 10) != 10 {
		t.Fatal("keepCount ceiling")
	}
}

// Every stateful scheme selects its units into scratch it owns: the lists
// must be the ones a fresh clone (fresh key buffer, fresh index slices)
// would return, in the same order, on every call; a clone must not share the
// buffers; and a warmed-up Forward must not allocate.
func TestEveryStatefulForwardReusesItsScratchAndAllocatesNothing(t *testing.T) {
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	mlp := newTestMLP(31, 32, 64, nn.ActSiLU)
	thr := []float32{0.02, 0.04}
	fixed := randVec(39, mlp.DFF)
	score := func(int, tensor.Vec) tensor.Vec { return fixed }
	for _, tc := range []struct {
		name string
		base StatefulScheme
	}{
		{"dip", NewDIP(0.5)}, {"dip-ca", NewDIPCA(0.5, 0.2)},
		{"glu", &GLUPrune{RhoGLU: 0.4}}, {"glu-oracle", &GLUOracle{Rho: 0.4}},
		{"gate", &GatePrune{Rho: 0.4}}, {"up", &UpPrune{Rho: 0.4}},
		{"cats", &GatePrune{Thresholds: thr}}, {"dejavu", &Predictive{Rho: 0.4, Score: score}},
		{"glu-threshold-global", &GLUPrune{Thresholds: []float32{0.03, 0.03}}},
		{"glu-threshold-per-layer", &GLUPrune{Thresholds: thr}},
		{"glu-threshold-per-token", &GLUPrune{RhoGLU: 0.4}},
	} {
		base := tc.base
		t.Run(tc.name, func(t *testing.T) {
			s := Clone(base)
			view := parityView{salt: 1}
			for tok := uint64(0); tok < 5; tok++ {
				layer := int(tok % 2)
				x := randVec(40+tok, 32)
				y, ta := s.Forward(layer, x, mlp, view)
				wantY, want := Clone(base).Forward(layer, x, mlp, view)
				if !vecClose(y, wantY, 0) {
					t.Fatalf("token %d: output differs from a fresh clone's", tok)
				}
				if err := accessEqual(&ta, &want); err != nil {
					t.Fatalf("token %d: %v", tok, err)
				}
			}
			_, ta := s.Forward(0, randVec(50, 32), mlp, view)
			kept := append([]int(nil), ta.Groups[GroupDown].Units...)
			Clone(s).Forward(0, randVec(51, 32), mlp, view)
			if !reflect.DeepEqual(ta.Groups[GroupDown].Units, kept) {
				t.Fatal("a clone's Forward overwrote the original's unit list")
			}
			x := randVec(52, 32)
			if a := testing.AllocsPerRun(10, func() { s.Forward(1, x, mlp, view) }); a != 0 {
				t.Errorf("%s.Forward allocates %v objects/call at steady state, want 0", s.Name(), a)
			}
		})
	}
}

// Recycled clones: a serving engine hands a finished session's scheme clone
// to the next request of the same scheme, so for every StatefulScheme a
// clone that has already run Forward — on another layer, another input,
// another cache view and a larger MLP, which resizes its scratch — must give
// the same output and TokenAccess as a fresh clone.
func TestUsedCloneForwardsLikeAFreshClone(t *testing.T) {
	mlp := newTestMLP(41, 20, 60, nn.ActSiLU)
	big := newTestMLP(42, 28, 84, nn.ActSiLU)
	thr := []float32{0.02, 0.04, 0.06}
	score := func(layer int, x tensor.Vec) tensor.Vec { // both MLPs have dff = 3·dim
		s := tensor.NewVec(3 * len(x))
		for i := range s {
			s[i] = x[i%len(x)] * float32(i%7-layer)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		s    StatefulScheme
	}{
		{"dip", NewDIP(0.5)}, {"dip-ca", NewDIPCA(0.5, 0.2)},
		{"glu", &GLUPrune{RhoGLU: 0.4}}, {"glu-oracle", &GLUOracle{Rho: 0.4}},
		{"gate", &GatePrune{Rho: 0.4}}, {"up", &UpPrune{Rho: 0.4}},
		{"cats", &GatePrune{Thresholds: thr}}, {"dejavu", &Predictive{Rho: 0.4, Score: score}},
		{"glu-threshold-per-layer", &GLUPrune{Thresholds: thr}},
		{"glu-threshold-per-token", &GLUPrune{RhoGLU: 0.4}},
	} {
		s := tc.s
		t.Run(tc.name, func(t *testing.T) {
			used := Clone(s)
			for layer := 0; layer < 3; layer++ {
				used.Forward(layer, randVec(uint64(50+layer), big.Dim), big, parityView{salt: layer})
			}
			for layer := 0; layer < 3; layer++ {
				x := randVec(uint64(60+layer), mlp.Dim)
				view := parityView{salt: layer + 1}
				want, wantTA := Clone(s).Forward(layer, x, mlp, view)
				got, gotTA := used.Forward(layer, x, mlp, view)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("layer %d: out[%d] = %v from the used clone, %v from a fresh one", layer, i, got[i], want[i])
					}
				}
				if err := accessEqual(&gotTA, &wantTA); err != nil {
					t.Fatalf("layer %d: TokenAccess diverged: %v", layer, err)
				}
			}
		})
	}
}
