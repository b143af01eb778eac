package sparsity

import (
	"math"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// refThreshold is the float rule the thresholded schemes keep: the units
// with score ≥ thr in order, and the strongest unit (the lowest index on a
// tie; unit 0 when every score is NaN).
func refThreshold(scores []float32, thr float32) (idx []int, best int) {
	bestV := float32(-1)
	for i, a := range scores {
		if a >= thr {
			idx = append(idx, i)
		}
		if a > bestV {
			best, bestV = i, a
		}
	}
	return idx, best
}

// refGLUThreshold is the thresholded GLU pruning GLUPrune{Thresholds}
// replaced: dense GLU, the units with |h_i| ≥ thr, W_d on those. When no
// unit passes it returns no units and a zero output.
func refGLUThreshold(thr float32, x tensor.Vec, mlp *nn.GLUMLP) (tensor.Vec, []int, int) {
	h := mlp.GLU(x, nil)
	idx, best := refThreshold(absOf(h), thr)
	return tensor.MatVecSparse(mlp.Down.P.W, h, idx, nil), idx, best
}

// refCATS is the CATS scheme GatePrune{Thresholds} replaced: the units with
// |σ(g_i)| ≥ thr, or the strongest one when none passes, on W_u rows and
// W_d columns.
func refCATS(thr float32, x tensor.Vec, mlp *nn.GLUMLP) (tensor.Vec, []int) {
	g := tensor.MatVec(mlp.Gate.P.W, x, nil)
	scores := make([]float32, len(g))
	for i, v := range g {
		scores[i] = abs(mlp.Act.Apply(v))
	}
	idx, best := refThreshold(scores, thr)
	if len(idx) == 0 {
		idx = []int{best}
	}
	return sparseRowsOutput(mlp, x, g, idx, nil), idx
}

// absOf returns |v| elementwise, the score the magnitude schemes rank.
func absOf(v tensor.Vec) tensor.Vec {
	out := tensor.NewVec(len(v))
	for i, a := range v {
		out[i] = abs(a)
	}
	return out
}

var (
	negZero = float32(math.Copysign(0, -1))
	inf     = float32(math.Inf(1))
	nan     = float32(math.NaN())
)

// poisonedMLP is a 6×12 test MLP whose unit i is rewritten by poison[i]
// (mod 8) so the scores take special values: 1 zeroes W_u's row (h = ±0),
// 2–4 put +Inf, −Inf or NaN into W_u's row, 5–6 put ±Inf into W_g's row
// (σ(±Inf) is ±Inf, 0 or NaN), 7 zeroes W_g's row (σ = 0, score ±0).
func poisonedMLP(seed uint64, act nn.Activation, poison []byte) *nn.GLUMLP {
	mlp := newTestMLP(seed, 6, 12, act)
	up, gate := mlp.Up.P.W, mlp.Gate.P.W
	for i, p := range poison[:min(len(poison), mlp.DFF)] {
		j := int(p/8) % mlp.Dim
		switch p % 8 {
		case 1:
			clear(up.Row(i))
		case 2:
			up.Row(i)[j] = inf
		case 3:
			up.Row(i)[j] = -inf
		case 4:
			up.Row(i)[j] = nan
		case 5:
			gate.Row(i)[j] = inf
		case 6:
			gate.Row(i)[j] = -inf
		case 7:
			clear(gate.Row(i))
		}
	}
	return mlp
}

// checkThresholdSchemes holds GLUPrune{Thresholds} and GatePrune{Thresholds}
// at layer 1 to the float-rule oracles, outputs bit for bit and unit lists
// exactly. The one deliberate difference: where no |h_i| passes, GLUPrune
// keeps the strongest unit as CATS does, where GLUThreshold zeroed the
// output.
func checkThresholdSchemes(t *testing.T, mlp *nn.GLUMLP, x tensor.Vec, thr float32) {
	t.Helper()
	thresholds := []float32{inf, thr} // layer 0 must not be read
	wantY, want, best := refGLUThreshold(thr, x, mlp)
	if len(want) == 0 {
		want = []int{best}
		wantY = tensor.MatVecSparse(mlp.Down.P.W, mlp.GLU(x, nil), want, nil)
	}
	y, ta := (&GLUPrune{Thresholds: thresholds}).Forward(1, x, mlp, nil)
	sameBits(t, "glu", x, thr, y, ta.Groups[GroupDown].Units, wantY, want)

	wantY, want = refCATS(thr, x, mlp)
	y, ta = (&GatePrune{Thresholds: thresholds}).Forward(1, x, mlp, nil)
	sameBits(t, "cats", x, thr, y, ta.Groups[GroupDown].Units, wantY, want)
	if up := ta.Groups[GroupUpRows].Units; !slices.Equal(up, want) {
		t.Fatalf("cats x %v thr %v: W_u rows %v, oracle %v", x, thr, up, want)
	}
}

func sameBits(t *testing.T, name string, x tensor.Vec, thr float32, y tensor.Vec, units []int, wantY tensor.Vec, want []int) {
	t.Helper()
	if !slices.Equal(units, want) {
		t.Fatalf("%s x %v thr %v: units %v, oracle %v", name, x, thr, units, want)
	}
	for i := range wantY {
		if math.Float32bits(y[i]) != math.Float32bits(wantY[i]) {
			t.Fatalf("%s x %v thr %v: out[%d] = %v, oracle %v", name, x, thr, i, y[i], wantY[i])
		}
	}
}

var oracleThresholds = []float32{0, negZero, 0.05, 0.3, 1e9, -1, inf, -inf, nan}

func TestThresholdSchemesMatchFloatRuleOracles(t *testing.T) {
	x := randVec(70, 6)
	inputs := []tensor.Vec{
		x,
		make(tensor.Vec, 6),
		{negZero, negZero, negZero, negZero, negZero, negZero},
		{x[0], inf, x[2], x[3], x[4], x[5]},
		{x[0], x[1], nan, x[3], x[4], x[5]},
	}
	poisons := [][]byte{nil, {0, 1, 2, 3, 4, 5, 6, 7, 9, 17, 33, 65}, {7, 7, 1, 1, 4, 4, 12, 13, 14, 15, 20, 28}}
	for _, act := range []nn.Activation{nn.ActSiLU, nn.ActReLU} {
		for pi, poison := range poisons {
			mlp := poisonedMLP(71+uint64(pi), act, poison)
			for _, in := range inputs {
				for _, thr := range oracleThresholds {
					checkThresholdSchemes(t, mlp, in, thr)
				}
			}
		}
	}
}

// A NaN threshold admits no unit under the float rule, so both schemes keep
// only the strongest one; compared as keys it would admit every unit.
func TestNaNThresholdKeepsOnlyTheStrongestUnit(t *testing.T) {
	mlp := newTestMLP(72, 6, 12, nn.ActSiLU)
	for _, s := range []Scheme{&GLUPrune{Thresholds: []float32{nan}}, &GatePrune{Thresholds: []float32{nan}}} {
		if n := len(mustAccess(t, s, mlp, randVec(73, 6)).Groups[GroupDown].Units); n != 1 {
			t.Fatalf("%s under a NaN threshold kept %d units, want 1", s.Name(), n)
		}
	}
}

func FuzzThresholdSchemesMatchOracles(f *testing.F) {
	for i, thr := range oracleThresholds {
		f.Add(uint64(i), thr, []byte{0, 1, 2, 3, 4, 5, 6, 7, 9, 17, 33, 65}, byte(i), false)
	}
	f.Add(uint64(9), float32(0.1), []byte{}, byte(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, thr float32, poison []byte, xSpecial byte, relu bool) {
		act := nn.ActSiLU
		if relu {
			act = nn.ActReLU
		}
		mlp := poisonedMLP(seed, act, poison)
		x := randVec(seed+1, mlp.Dim)
		// xSpecial 1–4 writes +0, −0, +Inf or NaN into one input coordinate.
		if k := xSpecial % 8; k >= 1 && k <= 4 {
			x[int(xSpecial/8)%len(x)] = []float32{0, negZero, inf, nan}[k-1]
		}
		checkThresholdSchemes(t, mlp, x, thr)
	})
}
