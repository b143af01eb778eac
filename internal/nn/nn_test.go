package nn

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

func randSeq(rng *tensor.RNG, T, dim int) []tensor.Vec {
	xs := make([]tensor.Vec, T)
	for t := range xs {
		x := tensor.NewVec(dim)
		for i := range x {
			x[i] = rng.NormFloat32()
		}
		xs[t] = x
	}
	return xs
}

// checkGrads verifies analytic parameter gradients against central finite
// differences for a sampled subset of entries.
func checkGrads(t *testing.T, params []*Param, loss func() float64, run func(), tol float64) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	run()
	rng := tensor.NewRNG(99)
	for _, p := range params {
		n := p.Size()
		checks := 6
		if n < checks {
			checks = n
		}
		for c := 0; c < checks; c++ {
			i := rng.Intn(n)
			analytic, numeric := GradCheck(p, i, loss, 1e-2)
			scale := math.Max(math.Abs(analytic), math.Abs(numeric))
			if scale < 1e-4 {
				continue
			}
			if math.Abs(analytic-numeric)/scale > tol {
				t.Fatalf("%s[%d]: analytic %.6f vs numeric %.6f", p.Name, i, analytic, numeric)
			}
		}
	}
}

// halfSqErr is ½‖y − target‖² summed over the sequence, with its gradient
// y − target per position.
func halfSqErr(ys, target []tensor.Vec) (float64, []tensor.Vec) {
	var s float64
	dys := make([]tensor.Vec, len(ys))
	for t := range ys {
		dys[t] = tensor.NewVec(len(ys[t]))
		for i := range ys[t] {
			d := ys[t][i] - target[t][i]
			s += 0.5 * float64(d) * float64(d)
			dys[t][i] = d
		}
	}
	return s, dys
}

// applySeq maps every vector of xs through f.
func applySeq(xs []tensor.Vec, f func(tensor.Vec) tensor.Vec) []tensor.Vec {
	ys := make([]tensor.Vec, len(xs))
	for t, x := range xs {
		ys[t] = f(x)
	}
	return ys
}

// mlpSeq runs mlp over xs one token at a time, recording each for Backward.
// Each record keeps the input columns in and the GLU units units (nil for
// all), zeroed elsewhere as a sparse scheme's forward leaves them.
func mlpSeq(mlp *GLUMLP, xs []tensor.Vec, in, units []int) ([]tensor.Vec, []MLPRecord) {
	recs := make([]MLPRecord, len(xs))
	ys := make([]tensor.Vec, len(xs))
	for t, x := range xs {
		r := &recs[t]
		r.X, r.In, r.Units = x.Clone(), in, units
		KeepOnly(r.X, in)
		r.H = mlp.GLUInto(r.X, nil, &r.MLPScratch)
		KeepOnly(r.H, units)
		ys[t] = tensor.MatVec(mlp.Down.P.W, r.H, nil)
	}
	return ys, recs
}

// attnSeq steps attn over xs on a fresh cache, recording each position for
// Backward.
func attnSeq(attn *Attention, xs []tensor.Vec) ([]tensor.Vec, []AttnRecord, *KVCache) {
	cache := &KVCache{}
	recs := make([]AttnRecord, len(xs))
	ys := make([]tensor.Vec, len(xs))
	for t, x := range xs {
		ys[t] = attn.Step(x, cache, nil, &recs[t])
	}
	return ys, recs, cache
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	lin := NewLinear("lin", 5, 4, rng)
	xs := randSeq(rng, 3, 4)
	target := randSeq(rng, 3, 5)
	fwd := func(x tensor.Vec) tensor.Vec { return lin.Apply(x, nil) }
	loss := func() float64 {
		s, _ := halfSqErr(applySeq(xs, fwd), target)
		return s
	}
	run := func() {
		_, dys := halfSqErr(applySeq(xs, fwd), target)
		lin.Backward(dys, xs)
	}
	checkGrads(t, lin.Params(), loss, run, 0.03)
}

func TestLinearInputGradient(t *testing.T) {
	rng := tensor.NewRNG(2)
	lin := NewLinear("lin", 4, 3, rng)
	xs := randSeq(rng, 1, 3)
	dys := []tensor.Vec{tensor.NewVec(4)}
	for i := range dys[0] {
		dys[0][i] = 1
	}
	dxs := lin.Backward(dys, xs)
	// Finite difference on the input.
	for j := 0; j < 3; j++ {
		const h = 1e-3
		orig := xs[0][j]
		xs[0][j] = orig + h
		up := lin.Apply(xs[0], nil)
		xs[0][j] = orig - h
		down := lin.Apply(xs[0], nil)
		xs[0][j] = orig
		var num float64
		for i := range up {
			num += float64(up[i]-down[i]) / (2 * h)
		}
		if math.Abs(num-float64(dxs[0][j])) > 1e-2 {
			t.Fatalf("input grad %d: analytic %v numeric %v", j, dxs[0][j], num)
		}
	}
}

func TestRMSNormGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	norm := NewRMSNorm("norm", 6)
	// Perturb the gain so gradients aren't trivially symmetric.
	for i := range norm.Gain.W.Data {
		norm.Gain.W.Data[i] = 1 + 0.1*rng.NormFloat32()
	}
	xs := randSeq(rng, 2, 6)
	target := randSeq(rng, 2, 6)
	fwd := func(x tensor.Vec) tensor.Vec { return norm.Apply(x, nil) }
	loss := func() float64 {
		s, _ := halfSqErr(applySeq(xs, fwd), target)
		return s
	}
	run := func() {
		_, dys := halfSqErr(applySeq(xs, fwd), target)
		norm.Backward(dys, xs)
	}
	checkGrads(t, norm.Params(), loss, run, 0.03)
}

func TestRMSNormInputGradient(t *testing.T) {
	rng := tensor.NewRNG(4)
	norm := NewRMSNorm("norm", 5)
	xs := randSeq(rng, 1, 5)
	dys := []tensor.Vec{{0.3, -0.2, 0.5, 0.1, -0.4}}
	dxs := norm.Backward(dys, xs)
	for j := 0; j < 5; j++ {
		const h = 1e-3
		orig := xs[0][j]
		eval := func(v float32) float64 {
			xs[0][j] = v
			y := norm.Apply(xs[0], nil)
			var s float64
			for i := range y {
				s += float64(dys[0][i] * y[i])
			}
			return s
		}
		num := (eval(orig+h) - eval(orig-h)) / (2 * h)
		xs[0][j] = orig
		if math.Abs(num-float64(dxs[0][j])) > 1e-2 {
			t.Fatalf("RMSNorm input grad %d: analytic %v numeric %v", j, dxs[0][j], num)
		}
	}
}

// The dense case, and a masked one: inputs 1 and 4 and GLU units 0, 2, 3
// and 6 pruned, whose weight gradients and input gradients are exactly zero.
func TestGLUMLPGradients(t *testing.T) {
	for _, act := range []Activation{ActSiLU, ActReLU} {
		for _, mask := range []struct{ in, units []int }{{nil, nil}, {[]int{0, 2, 3}, []int{1, 4, 5, 7}}} {
			rng := tensor.NewRNG(6)
			mlp := NewGLUMLP("mlp", 5, 8, act, rng)
			xs := randSeq(rng, 2, 5)
			target := randSeq(rng, 2, 5)
			loss := func() float64 {
				ys, _ := mlpSeq(mlp, xs, mask.in, mask.units)
				s, _ := halfSqErr(ys, target)
				return s
			}
			var dxs []tensor.Vec
			run := func() {
				ys, recs := mlpSeq(mlp, xs, mask.in, mask.units)
				_, dys := halfSqErr(ys, target)
				dxs = mlp.Backward(dys, recs)
			}
			checkGrads(t, mlp.Params(), loss, run, 0.05)
			if mask.in == nil {
				continue
			}
			for i := 0; i < mlp.DFF; i++ {
				for j := 0; j < mlp.Dim; j++ {
					keptUnit, keptIn := slices.Contains(mask.units, i), slices.Contains(mask.in, j)
					for _, p := range []*Param{mlp.Up.P, mlp.Gate.P} {
						if g := p.G.At(i, j); (!keptUnit || !keptIn) && g != 0 {
							t.Fatalf("%s %s[%d,%d] = %v, want 0 (unit kept %v, input kept %v)", act, p.Name, i, j, g, keptUnit, keptIn)
						}
					}
					if g := mlp.Down.P.G.At(j, i); !keptUnit && g != 0 {
						t.Fatalf("%s down[%d,%d] = %v on a pruned unit, want 0", act, j, i, g)
					}
				}
			}
			for _, dx := range dxs {
				if dx[1] != 0 || dx[4] != 0 {
					t.Fatalf("%s: dx = %v, want 0 at the pruned inputs 1 and 4", act, dx)
				}
			}
		}
	}
}

func TestAttentionGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	attn := NewAttention("attn", 8, 2, 1, rng)
	xs := randSeq(rng, 3, 8)
	target := randSeq(rng, 3, 8)
	loss := func() float64 {
		ys, _, _ := attnSeq(attn, xs)
		s, _ := halfSqErr(ys, target)
		return s
	}
	run := func() {
		ys, recs, cache := attnSeq(attn, xs)
		_, dys := halfSqErr(ys, target)
		attn.Backward(dys, recs, cache)
	}
	checkGrads(t, attn.Params(), loss, run, 0.05)
}

// A recorded Step returns the bits an unrecorded one does, and its record
// holds one probability distribution per head and the context Wo read.
func TestAttentionStepRecordIsStep(t *testing.T) {
	rng := tensor.NewRNG(10)
	attn := NewAttention("attn", 12, 4, 2, rng)
	xs := randSeq(rng, 6, 12)
	ys, recs, _ := attnSeq(attn, xs)
	cache, s := &KVCache{}, &AttnBatchScratch{}
	for t2, x := range xs {
		y := attn.Step(x, cache, s, nil)
		for i := range y {
			if math.Float32bits(y[i]) != math.Float32bits(ys[t2][i]) {
				t.Fatalf("position %d: recorded Step gives %v at %d, Step %v", t2, ys[t2][i], i, y[i])
			}
		}
		r := recs[t2]
		if len(r.Probs) != attn.NHeads*(t2+1) {
			t.Fatalf("position %d: %d probabilities, want %d", t2, len(r.Probs), attn.NHeads*(t2+1))
		}
		for h := 0; h < attn.NHeads; h++ {
			var sum float64
			for _, p := range r.Probs[h*(t2+1) : (h+1)*(t2+1)] {
				sum += float64(p)
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("position %d head %d: probabilities sum to %v", t2, h, sum)
			}
		}
		for i, v := range attn.Wo.Apply(r.Cat, nil) {
			if math.Float32bits(v) != math.Float32bits(y[i]) {
				t.Fatalf("position %d: Wo·Cat differs from the output at %d", t2, i)
			}
		}
	}
}

func TestAttentionCausality(t *testing.T) {
	rng := tensor.NewRNG(9)
	attn := NewAttention("attn", 8, 4, 2, rng)
	xs := randSeq(rng, 5, 8)
	ys, _, _ := attnSeq(attn, xs)
	// Changing a future input must not change a past output.
	xs2 := make([]tensor.Vec, len(xs))
	for i, x := range xs {
		xs2[i] = x.Clone()
	}
	xs2[4].Fill(99)
	ys2, _, _ := attnSeq(attn, xs2)
	for t2 := 0; t2 < 4; t2++ {
		for i := range ys[t2] {
			if ys[t2][i] != ys2[t2][i] {
				t.Fatalf("output %d changed when future input changed", t2)
			}
		}
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(11)
	emb := NewEmbedding(10, 8, 4, rng)
	ids := []int{3, 7, 3}
	x0, x2 := emb.At(ids[0], 0, nil), emb.At(ids[2], 2, nil)
	// Same token at different positions differs by positional embedding.
	diff := false
	for i := range x0 {
		if x0[i] != x2[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("positional embedding has no effect")
	}
	// Backward accumulates into the right rows (token 3 gets two updates).
	dxs := []tensor.Vec{{1, 0, 0, 0}, {0, 1, 0, 0}, {1, 0, 0, 0}}
	emb.Backward(dxs, ids)
	if emb.Tok.G.At(3, 0) != 2 {
		t.Fatalf("token grad wrong: %v", emb.Tok.G.At(3, 0))
	}
	if emb.Tok.G.At(7, 1) != 1 {
		t.Fatal("token grad wrong for id 7")
	}
	if emb.Pos.G.At(1, 1) != 1 {
		t.Fatal("positional grad wrong")
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(13)
	logits := randSeq(rng, 3, 5)
	targets := []int{1, 4, 0}
	dl := make([]tensor.Vec, 3)
	for i := range dl {
		dl[i] = tensor.NewVec(5)
	}
	CrossEntropy(logits, targets, dl)
	for t2 := 0; t2 < 3; t2++ {
		for i := 0; i < 5; i++ {
			const h = 1e-3
			orig := logits[t2][i]
			logits[t2][i] = orig + h
			up := CrossEntropy(logits, targets, nil)
			logits[t2][i] = orig - h
			down := CrossEntropy(logits, targets, nil)
			logits[t2][i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-float64(dl[t2][i])) > 1e-2 {
				t.Fatalf("CE grad (%d,%d): analytic %v numeric %v", t2, i, dl[t2][i], num)
			}
		}
	}
}

func TestCrossEntropyUniform(t *testing.T) {
	logits := []tensor.Vec{tensor.NewVec(8)}
	ce := CrossEntropy(logits, []int{3}, nil)
	if math.Abs(ce-math.Log(8)) > 1e-5 {
		t.Fatalf("uniform CE = %v, want ln 8", ce)
	}
	if p := Perplexity(ce); math.Abs(p-8) > 1e-3 {
		t.Fatalf("uniform perplexity = %v, want 8", p)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := tensor.NewRNG(15)
	lin := NewLinear("lin", 3, 3, rng)
	target := tensor.Vec{1, -2, 0.5}
	x := tensor.Vec{0.3, 0.7, -0.2}
	lossAt := func() float64 {
		y := lin.Apply(x, nil)
		var s float64
		for i := range y {
			d := float64(y[i] - target[i])
			s += 0.5 * d * d
		}
		return s
	}
	opt := NewAdam(0.05)
	first := lossAt()
	for step := 0; step < 200; step++ {
		y := lin.Apply(x, nil)
		dy := tensor.NewVec(3)
		for i := range y {
			dy[i] = y[i] - target[i]
		}
		lin.Backward([]tensor.Vec{dy}, []tensor.Vec{x})
		opt.Step(lin.Params(), 1)
	}
	last := lossAt()
	if last > first/100 {
		t.Fatalf("Adam failed to optimize: %v -> %v", first, last)
	}
}

func TestAdamGradClip(t *testing.T) {
	rng := tensor.NewRNG(16)
	lin := NewLinear("lin", 2, 2, rng)
	before := make([]float32, 4)
	copy(before, lin.P.W.Data)
	// Gigantic gradient must be clipped to norm 1, so the update is bounded
	// by lr per entry (times Adam's unit-scale normalization).
	for i := range lin.P.G.Data {
		lin.P.G.Data[i] = 1e9
	}
	opt := NewAdam(0.01)
	opt.Step(lin.Params(), 1)
	for i := range lin.P.W.Data {
		delta := math.Abs(float64(lin.P.W.Data[i] - before[i]))
		if delta > 0.011 {
			t.Fatalf("clipped update too large: %v", delta)
		}
	}
}

func TestCosineLR(t *testing.T) {
	if CosineLR(0, 10, 100) >= CosineLR(9, 10, 100) {
		t.Fatal("warmup should increase")
	}
	if CosineLR(10, 10, 100) < CosineLR(99, 10, 100) {
		t.Fatal("decay should decrease")
	}
	if CosineLR(1000, 10, 100) != 0.05 {
		t.Fatal("post-schedule floor wrong")
	}
}

func TestSaveLoadParams(t *testing.T) {
	rng := tensor.NewRNG(17)
	mlp := NewGLUMLP("mlp", 4, 6, ActSiLU, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, mlp.Params()); err != nil {
		t.Fatal(err)
	}
	mlp2 := NewGLUMLP("mlp", 4, 6, ActSiLU, tensor.NewRNG(999))
	if err := LoadParams(bytes.NewReader(buf.Bytes()), mlp2.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range mlp.Params() {
		q := mlp2.Params()[i]
		for j := range p.W.Data {
			if p.W.Data[j] != q.W.Data[j] {
				t.Fatal("round trip mismatch")
			}
		}
	}
}

func TestLoadParamsDimensionMismatch(t *testing.T) {
	rng := tensor.NewRNG(18)
	a := NewLinear("x", 3, 3, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b := NewLinear("x", 4, 3, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), b.Params()); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestLoadParamsMissing(t *testing.T) {
	rng := tensor.NewRNG(19)
	a := NewLinear("x", 2, 2, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b := NewLinear("y", 2, 2, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), b.Params()); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestLoadParamsBadMagic(t *testing.T) {
	rng := tensor.NewRNG(20)
	a := NewLinear("x", 2, 2, rng)
	if err := LoadParams(bytes.NewReader([]byte("nope")), a.Params()); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestCheckFinite(t *testing.T) {
	rng := tensor.NewRNG(21)
	lin := NewLinear("lin", 2, 2, rng)
	if err := CheckFinite(lin); err != nil {
		t.Fatalf("healthy params flagged: %v", err)
	}
	lin.P.W.Data[0] = float32(math.NaN())
	if err := CheckFinite(lin); err == nil {
		t.Fatal("NaN not detected")
	}
}

func TestCountParams(t *testing.T) {
	rng := tensor.NewRNG(22)
	mlp := NewGLUMLP("m", 4, 8, ActSiLU, rng)
	if got := CountParams(mlp); got != 3*4*8 {
		t.Fatalf("CountParams = %d", got)
	}
	if mlp.WeightCount() != 3*4*8 {
		t.Fatal("WeightCount wrong")
	}
}

func TestActivationString(t *testing.T) {
	if ActSiLU.String() != "silu" || ActReLU.String() != "relu" {
		t.Fatal("activation names wrong")
	}
}

// GLU is the per-element u·Apply(g) loop to the bit, for both activations on
// signed zeros, infinities and NaN, written to its own buffer and over u.
func TestActivationGLUMatchesApplyBitForBit(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, inf, -inf, nan, 1, -2.5, 1e-40, 88.5, -104}
	var u, g tensor.Vec
	for _, a := range specials {
		for _, b := range specials {
			u, g = append(u, a), append(g, b)
		}
	}
	for _, act := range []Activation{ActSiLU, ActReLU} {
		dst := tensor.NewVec(len(u))
		act.GLU(dst, u, g)
		inPlace := append(tensor.Vec(nil), u...)
		act.GLU(inPlace, inPlace, g)
		for i := range u {
			want := math.Float32bits(u[i] * act.Apply(g[i]))
			if math.Float32bits(dst[i]) != want || math.Float32bits(inPlace[i]) != want {
				t.Fatalf("%v: GLU(u=%v, g=%v) = %v (in place %v), Apply loop gives %v", act, u[i], g[i], dst[i], inPlace[i], math.Float32frombits(want))
			}
		}
	}
}
