package nn

import (
	"bytes"
	"math"
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

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	lin := NewLinear("lin", 5, 4, rng)
	xs := randSeq(rng, 3, 4)
	target := randSeq(rng, 3, 5)
	loss := func() float64 {
		ys, _ := lin.Forward(xs)
		var s float64
		for t := range ys {
			for i := range ys[t] {
				d := float64(ys[t][i] - target[t][i])
				s += 0.5 * d * d
			}
		}
		return s
	}
	run := func() {
		ys, ctx := lin.Forward(xs)
		dys := make([]tensor.Vec, len(ys))
		for t := range ys {
			dys[t] = tensor.NewVec(len(ys[t]))
			for i := range ys[t] {
				dys[t][i] = ys[t][i] - target[t][i]
			}
		}
		lin.Backward(dys, ctx)
	}
	checkGrads(t, lin.Params(), loss, run, 0.03)
}

func TestLinearInputGradient(t *testing.T) {
	rng := tensor.NewRNG(2)
	lin := NewLinear("lin", 4, 3, rng)
	xs := randSeq(rng, 1, 3)
	ys, ctx := lin.Forward(xs)
	dys := []tensor.Vec{tensor.NewVec(4)}
	for i := range dys[0] {
		dys[0][i] = 1
	}
	dxs := lin.Backward(dys, ctx)
	// Finite difference on the input.
	for j := 0; j < 3; j++ {
		const h = 1e-3
		orig := xs[0][j]
		xs[0][j] = orig + h
		up, _ := lin.Forward(xs)
		xs[0][j] = orig - h
		down, _ := lin.Forward(xs)
		xs[0][j] = orig
		var num float64
		for i := range up[0] {
			num += float64(up[0][i]-down[0][i]) / (2 * h)
		}
		if math.Abs(num-float64(dxs[0][j])) > 1e-2 {
			t.Fatalf("input grad %d: analytic %v numeric %v", j, dxs[0][j], num)
		}
	}
	_ = ys
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
	loss := func() float64 {
		ys, _ := norm.Forward(xs)
		var s float64
		for t := range ys {
			for i := range ys[t] {
				d := float64(ys[t][i] - target[t][i])
				s += 0.5 * d * d
			}
		}
		return s
	}
	run := func() {
		ys, ctx := norm.Forward(xs)
		dys := make([]tensor.Vec, len(ys))
		for t := range ys {
			dys[t] = tensor.NewVec(len(ys[t]))
			for i := range ys[t] {
				dys[t][i] = ys[t][i] - target[t][i]
			}
		}
		norm.Backward(dys, ctx)
	}
	checkGrads(t, norm.Params(), loss, run, 0.03)
}

func TestRMSNormInputGradient(t *testing.T) {
	rng := tensor.NewRNG(4)
	norm := NewRMSNorm("norm", 5)
	xs := randSeq(rng, 1, 5)
	_, ctx := norm.Forward(xs)
	dys := []tensor.Vec{{0.3, -0.2, 0.5, 0.1, -0.4}}
	dxs := norm.Backward(dys, ctx)
	for j := 0; j < 5; j++ {
		const h = 1e-3
		orig := xs[0][j]
		eval := func(v float32) float64 {
			xs[0][j] = v
			ys, _ := norm.Forward(xs)
			var s float64
			for i := range ys[0] {
				s += float64(dys[0][i] * ys[0][i])
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

func TestRMSNormApplyMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(5)
	norm := NewRMSNorm("norm", 8)
	xs := randSeq(rng, 3, 8)
	ys, _ := norm.Forward(xs)
	for t2, x := range xs {
		y := norm.Apply(x, nil)
		for i := range y {
			if math.Abs(float64(y[i]-ys[t2][i])) > 1e-6 {
				t.Fatal("Apply and Forward disagree")
			}
		}
	}
}

func TestGLUMLPGradients(t *testing.T) {
	for _, act := range []Activation{ActSiLU, ActReLU} {
		rng := tensor.NewRNG(6)
		mlp := NewGLUMLP("mlp", 5, 8, act, rng)
		xs := randSeq(rng, 2, 5)
		target := randSeq(rng, 2, 5)
		loss := func() float64 {
			ys, _ := mlp.Forward(xs)
			var s float64
			for t := range ys {
				for i := range ys[t] {
					d := float64(ys[t][i] - target[t][i])
					s += 0.5 * d * d
				}
			}
			return s
		}
		run := func() {
			ys, ctx := mlp.Forward(xs)
			dys := make([]tensor.Vec, len(ys))
			for t := range ys {
				dys[t] = tensor.NewVec(len(ys[t]))
				for i := range ys[t] {
					dys[t][i] = ys[t][i] - target[t][i]
				}
			}
			mlp.Backward(dys, ctx)
		}
		checkGrads(t, mlp.Params(), loss, run, 0.05)
	}
}

func TestGLUMLPApplyMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(7)
	mlp := NewGLUMLP("mlp", 6, 10, ActSiLU, rng)
	xs := randSeq(rng, 4, 6)
	ys, _ := mlp.Forward(xs)
	for t2, x := range xs {
		y := mlp.Apply(x)
		for i := range y {
			if math.Abs(float64(y[i]-ys[t2][i])) > 1e-5 {
				t.Fatal("Apply and Forward disagree")
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
		ys, _ := attn.Forward(xs)
		var s float64
		for t := range ys {
			for i := range ys[t] {
				d := float64(ys[t][i] - target[t][i])
				s += 0.5 * d * d
			}
		}
		return s
	}
	run := func() {
		ys, ctx := attn.Forward(xs)
		dys := make([]tensor.Vec, len(ys))
		for t := range ys {
			dys[t] = tensor.NewVec(len(ys[t]))
			for i := range ys[t] {
				dys[t][i] = ys[t][i] - target[t][i]
			}
		}
		attn.Backward(dys, ctx)
	}
	checkGrads(t, attn.Params(), loss, run, 0.05)
}

func TestAttentionCausality(t *testing.T) {
	rng := tensor.NewRNG(9)
	attn := NewAttention("attn", 8, 4, 2, rng)
	xs := randSeq(rng, 5, 8)
	ys, _ := attn.Forward(xs)
	// Changing a future input must not change a past output.
	xs2 := make([]tensor.Vec, len(xs))
	for i, x := range xs {
		xs2[i] = x.Clone()
	}
	xs2[4].Fill(99)
	ys2, _ := attn.Forward(xs2)
	for t2 := 0; t2 < 4; t2++ {
		for i := range ys[t2] {
			if ys[t2][i] != ys2[t2][i] {
				t.Fatalf("output %d changed when future input changed", t2)
			}
		}
	}
}

func TestAttentionStepMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(10)
	attn := NewAttention("attn", 12, 4, 2, rng)
	xs := randSeq(rng, 6, 12)
	ys, _ := attn.Forward(xs)
	cache := &KVCache{}
	for t2, x := range xs {
		y := attn.Step(x, cache, nil)
		for i := range y {
			if math.Abs(float64(y[i]-ys[t2][i])) > 1e-5 {
				t.Fatalf("Step diverges from Forward at position %d", t2)
			}
		}
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(11)
	emb := NewEmbedding(10, 8, 4, rng)
	ids := []int{3, 7, 3}
	xs := emb.Forward(ids)
	if len(xs) != 3 {
		t.Fatal("wrong length")
	}
	// Same token at different positions differs by positional embedding.
	diff := false
	for i := range xs[0] {
		if xs[0][i] != xs[2][i] {
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

func TestEmbeddingAtMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(12)
	emb := NewEmbedding(10, 8, 4, rng)
	ids := []int{1, 2, 3}
	xs := emb.Forward(ids)
	for t2, id := range ids {
		x := emb.At(id, t2, nil)
		for i := range x {
			if x[i] != xs[t2][i] {
				t.Fatal("At disagrees with Forward")
			}
		}
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
		ys, ctx := lin.Forward([]tensor.Vec{x})
		dys := []tensor.Vec{tensor.NewVec(3)}
		for i := range ys[0] {
			dys[0][i] = ys[0][i] - target[i]
		}
		lin.Backward(dys, ctx)
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
