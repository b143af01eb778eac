package lora

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

func TestApplyDelta(t *testing.T) {
	rng := tensor.NewRNG(1)
	base := tensor.NewMat(4, 3)
	base.RandNorm(rng, 1)
	a := NewAdapter("t", 4, 3, 2, rng)
	// Give B nonzero values.
	a.B.W.RandNorm(rng, 1)
	dst := tensor.NewMat(4, 3)
	applyDelta(dst, base, a)
	delta := a.Delta()
	for i := range dst.Data {
		want := base.Data[i] + delta.Data[i]
		if math.Abs(float64(dst.Data[i]-want)) > 1e-5 {
			t.Fatalf("applyDelta[%d] = %v, want %v", i, dst.Data[i], want)
		}
	}
}

func TestZeroInitAdapterIsIdentity(t *testing.T) {
	rng := tensor.NewRNG(2)
	a := NewAdapter("t", 5, 4, 2, rng)
	d := a.Delta()
	for _, x := range d.Data {
		if x != 0 {
			t.Fatal("B zero-init should give zero delta")
		}
	}
}

func TestAdapterGradFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(3)
	a := NewAdapter("t", 3, 4, 2, rng)
	a.B.W.RandNorm(rng, 0.5)
	xin := tensor.Vec{0.5, -1, 2, 0.3}
	dout := tensor.Vec{1, -0.5, 2}
	// Loss = dout · (B A xin); gradient of loss w.r.t. A, B entries.
	loss := func() float64 {
		z := tensor.MatVec(a.A.W, xin, nil)
		y := tensor.MatVec(a.B.W, z, nil)
		var s float64
		for i := range y {
			s += float64(dout[i] * y[i])
		}
		return s
	}
	a.A.ZeroGrad()
	a.B.ZeroGrad()
	adapterGrad(a, dout, xin)
	for _, p := range a.Params() {
		for i := 0; i < p.Size(); i++ {
			analytic, numeric := nn.GradCheck(p, i, loss, 1e-3)
			if math.Abs(analytic-numeric) > 1e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

func trainedTiny(t *testing.T) (*model.Model, []int, []int) {
	t.Helper()
	tok := data.NewTokenizer()
	splits := data.NewSplits(51, 14000, 3000)
	cfg := model.Config{
		Name: "tiny-lora", Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 13)
	opts := model.DefaultTrainOpts()
	opts.Steps = 100
	opts.Batch = 2
	opts.SeqLen = 31
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		t.Fatal(err)
	}
	return m, tok.Encode(splits.Calib), tok.Encode(splits.Test)
}

func schemePPL(m *model.Model, s sparsity.Scheme, toks []int) float64 {
	hook := func(layer int, x tensor.Vec) tensor.Vec {
		y, _ := s.Forward(layer, x, m.Blocks[layer].MLP, nil)
		return y
	}
	return model.Perplexity(m, toks, 31, hook)
}

func TestLoRARecoversDIPLoss(t *testing.T) {
	m, calib, test := trainedTiny(t)
	test = test[:1500]
	scheme := sparsity.NewDIP(0.4)
	before := schemePPL(m, scheme, test)
	dense := model.Perplexity(m, test, 31, nil)
	opts := DefaultTrainOpts()
	opts.Iterations = 600
	adapters, err := Train(m, scheme, calib, 31, opts)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Fuse(m, adapters)
	if err != nil {
		t.Fatal(err)
	}
	after := schemePPL(fused, scheme, test)
	t.Logf("dense %.3f, DIP %.3f, DIP+LoRA %.3f", dense, before, after)
	if after >= before {
		t.Fatalf("LoRA did not improve sparse ppl: %.4f -> %.4f", before, after)
	}
	// Fused model evaluated densely should stay close to the original
	// dense model (adapters were trained for the sparse path but fused
	// weights shouldn't destroy the dense behavior either).
	fusedDense := model.Perplexity(fused, test, 31, nil)
	if fusedDense > dense*3 {
		t.Fatalf("fusion damaged the model: %v vs %v", fusedDense, dense)
	}
}

func TestFuseValidatesLayerCount(t *testing.T) {
	m, _, _ := trainedTiny(t)
	if _, err := Fuse(m, make([]LayerAdapters, 1)); err == nil {
		t.Fatal("expected layer-count error")
	}
}

func TestFuseZeroAdaptersIsIdentity(t *testing.T) {
	m, _, _ := trainedTiny(t)
	rng := tensor.NewRNG(5)
	ads := make([]LayerAdapters, len(m.Blocks))
	for l := range ads {
		ads[l] = LayerAdapters{
			Up:   NewAdapter("u", m.Cfg.DFF, m.Cfg.Dim, 2, rng),
			Gate: NewAdapter("g", m.Cfg.DFF, m.Cfg.Dim, 2, rng),
			Down: NewAdapter("d", m.Cfg.Dim, m.Cfg.DFF, 2, rng),
		}
	}
	fused, err := Fuse(m, ads)
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.NewDecoder(nil), fused.NewDecoder(nil)
	for _, id := range []int{1, 2, 3} {
		la, lb := a.Step(id), b.Step(id)
		for i := range la {
			if la[i] != lb[i] {
				t.Fatal("zero adapters should fuse to identity")
			}
		}
	}
}

func TestExtractMasks(t *testing.T) {
	var ta sparsity.TokenAccess
	ta.Groups[sparsity.GroupUpGate] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{1, 3}}
	ta.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessSparse, Units: []int{0, 2}}
	in, glu := extractMasks(&ta, 4, 6)
	if len(in) != 2 || in[0] != 1 {
		t.Fatalf("in = %v", in)
	}
	if len(glu) != 2 || glu[1] != 2 {
		t.Fatalf("glu = %v", glu)
	}
	// Dense down access → all units.
	var ta2 sparsity.TokenAccess
	ta2.Groups[sparsity.GroupDown] = sparsity.GroupAccess{Kind: sparsity.AccessDense}
	in2, glu2 := extractMasks(&ta2, 4, 6)
	if in2 != nil || len(glu2) != 6 {
		t.Fatalf("dense extract wrong: %v %v", in2, glu2)
	}
}

func TestTrainWorksWithCATS(t *testing.T) {
	m, calib, test := trainedTiny(t)
	test = test[:1000]
	cats := &sparsity.CATS{Thresholds: sparsity.CollectStats(m, calib, 31, 512).CATSThresholds(0.3)}
	before := schemePPL(m, cats, test)
	opts := DefaultTrainOpts()
	opts.AdaptGate = false // paper: CATS adapts up and down only
	opts.Iterations = 400
	adapters, err := Train(m, cats, calib, 31, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ad := range adapters {
		if ad.Gate != nil {
			t.Fatal("gate adapter should be absent for CATS")
		}
	}
	fused, err := Fuse(m, adapters)
	if err != nil {
		t.Fatal(err)
	}
	after := schemePPL(fused, cats, test)
	t.Logf("CATS %.3f -> CATS+LoRA %.3f", before, after)
	if after >= before*1.05 {
		t.Fatalf("CATS+LoRA much worse than CATS: %.4f -> %.4f", before, after)
	}
}

// Every code path that rewrites a weight matrix must leave the sparse
// kernels reading the new weights, not the input-major mirror of the old
// ones: one row per mutator — warm the mirror, mutate, and hold MatVecSparse
// to the same product on a fresh copy of the weights (whose mirror is built
// from the current Data). A row whose mutator forgot Invalidate trips the
// kernel's stale-mirror panic, or fails the comparison.
func TestSparseKernelSeesEveryWeightMutation(t *testing.T) {
	const rows, cols = 16, 8
	rng := tensor.NewRNG(41)
	calib := make([]tensor.Vec, 32)
	for i := range calib {
		calib[i] = tensor.NewVec(cols)
		for j := range calib[i] {
			calib[i][j] = rng.NormFloat32()
		}
	}
	x := calib[0]
	idx := []int{5, 0, 3, 6, 1}
	sameProduct := func(name string, w *tensor.Mat) {
		t.Helper()
		got := tensor.MatVecSparse(w, x, idx, nil)
		want := tensor.MatVecSparse(w.Clone(), x, idx, nil)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: MatVecSparse[%d] = %v on the mutated matrix, %v on a fresh copy of it", name, i, got[i], want[i])
			}
		}
	}
	mutators := []struct {
		name string
		fn   func(p *nn.Param) error
	}{
		{"Adam.Step", func(p *nn.Param) error {
			p.G.RandNorm(rng, 1)
			nn.NewAdam(0.1).Step([]*nn.Param{p}, 1)
			return nil
		}},
		{"LoadParams", func(p *nn.Param) error {
			src := nn.NewParam(p.Name, rows, cols)
			src.Init(rng, 1)
			var buf bytes.Buffer
			if err := nn.SaveParams(&buf, []*nn.Param{src}); err != nil {
				return err
			}
			return nn.LoadParams(&buf, []*nn.Param{p})
		}},
		{"GradCheck", func(p *nn.Param) error {
			nn.GradCheck(p, 3, func() float64 { sameProduct("GradCheck (inside loss)", p.W); return 0 }, 0.5)
			p.W.Data[3]++ // GradCheck restores the entry; move it so the row is not vacuous
			p.W.Invalidate()
			return nil
		}},
		{"applyDelta", func(p *nn.Param) error {
			a := NewAdapter("t", rows, cols, 2, rng)
			a.B.W.RandNorm(rng, 1)
			applyDelta(p.W, p.W.Clone(), a)
			return nil
		}},
		{"prune.Sweep(quant.RoundPlan)", func(p *nn.Param) error { return prune.Sweep(p.W, calib, quant.RoundPlan(2)) }},
		{"quant.VQMatrix", func(p *nn.Param) error { quant.VQMatrix(p.W, 2); return nil }},
		{"prune.Sweep(prune.MaskPlan)", func(p *nn.Param) error {
			return prune.Sweep(p.W, calib, prune.MaskPlan(prune.Unstructured, 0.5))
		}},
		{"prune.MagnitudeMatrix", func(p *nn.Param) error { prune.MagnitudeMatrix(p.W, 0.5); return nil }},
		{"Mat.Set", func(p *nn.Param) error { p.W.Set(2, 5, 9); return nil }},
		{"Mat.RandNorm", func(p *nn.Param) error { p.W.RandNorm(rng, 3); return nil }},
	}
	for _, mu := range mutators {
		p := nn.NewParam("w", rows, cols)
		p.Init(rng, 1)
		sameProduct(mu.name+" (warm-up)", p.W)
		before := p.W.Clone()
		if err := mu.fn(p); err != nil {
			t.Fatalf("%s: %v", mu.name, err)
		}
		changed := false
		for i, v := range before.Data {
			changed = changed || v != p.W.Data[i]
		}
		if !changed {
			t.Fatalf("%s left the weights unchanged; the row proves nothing", mu.name)
		}
		sameProduct(mu.name, p.W)
	}
}
