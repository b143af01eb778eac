package model

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func tinyConfig() Config {
	return Config{
		Name: "tiny", Vocab: 11, Dim: 16, Layers: 2, Heads: 2, KVHeads: 1,
		DFF: 24, MaxSeq: 32, Act: nn.ActSiLU,
	}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Heads = 3 // 16 % 3 != 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected divisibility error")
	}
	bad2 := good
	bad2.KVHeads = 3
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected kv divisibility error")
	}
	bad3 := good
	bad3.Vocab = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected non-positive error")
	}
}

func TestModelEndToEndGradients(t *testing.T) {
	m := New(tinyConfig(), 7)
	ids := []int{1, 4, 2, 9, 0, 3}
	targets := []int{4, 2, 9, 0, 3, 5}
	loss := func() float64 {
		logits, _ := m.forwardTrain(ids)
		return nn.CrossEntropy(logits, targets, nil)
	}
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	m.TrainStep(ids, targets)
	rng := tensor.NewRNG(31)
	checked := 0
	for _, p := range m.Params() {
		for c := 0; c < 3; c++ {
			i := rng.Intn(p.Size())
			analytic, numeric := nn.GradCheck(p, i, loss, 1e-2)
			scale := math.Max(math.Abs(analytic), math.Abs(numeric))
			if scale < 1e-4 {
				continue
			}
			if math.Abs(analytic-numeric)/scale > 0.08 {
				t.Fatalf("%s[%d]: analytic %.6g vs numeric %.6g", p.Name, i, analytic, numeric)
			}
			checked++
		}
		p.ZeroGrad()
	}
	if checked < 10 {
		t.Fatalf("too few gradient entries checked: %d", checked)
	}
}

func TestTrainingLearnsGrammar(t *testing.T) {
	tok := data.NewTokenizer()
	splits := data.NewSplits(11, 20000, 3000)
	cfg := tinyConfig()
	cfg.Vocab = tok.VocabSize()
	m := New(cfg, 5)
	testTokens := tok.Encode(splits.Test)
	before := Perplexity(m, testTokens[:1500], 31, nil)
	opts := DefaultTrainOpts()
	opts.Steps = 120
	opts.Batch = 2
	opts.SeqLen = 31
	if _, err := Train(m, tok.Encode(splits.Train), opts); err != nil {
		t.Fatal(err)
	}
	after := Perplexity(m, testTokens[:1500], 31, nil)
	if after >= before {
		t.Fatalf("training did not reduce perplexity: %.3f -> %.3f", before, after)
	}
	// The grammar is highly compressible; even a short run should land far
	// below the uniform baseline (vocab size).
	if after > float64(cfg.Vocab)/2 {
		t.Fatalf("perplexity %.3f suspiciously high after training", after)
	}
}

// The decoder's logits are refForward's, float32 bit for bit, at one
// worker and at two (refForward fans its dense loops out).
func TestDecoderMatchesForward(t *testing.T) {
	defer parallel.SetProcs(parallel.Procs())
	m := New(tinyConfig(), 13)
	ids := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}
	for _, procs := range []int{1, 2} {
		parallel.SetProcs(procs)
		logits := refForward(m, ids, nil)
		dec := m.NewDecoder(nil)
		for pos, id := range ids {
			sameBits(t, fmt.Sprintf("procs %d pos %d", procs, pos), dec.Step(id), logits[pos])
		}
		if dec.Pos() != len(ids) {
			t.Fatal("decoder position wrong")
		}
	}
}

// sameBits fails unless got and want hold the same float32 bits.
func sameBits(t testing.TB, what string, got, want tensor.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: index %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// Rewind keeps the first pos tokens' KV state: stepping on from there is
// stepping a fresh decoder through those tokens and on.
func TestRewindContinuesFromThePrefix(t *testing.T) {
	m := New(tinyConfig(), 13)
	dec := m.NewDecoder(nil)
	for _, id := range []int{3, 1, 4, 1, 5} {
		dec.Step(id)
	}
	dec.Rewind(2)
	if dec.Pos() != 2 {
		t.Fatalf("Pos after Rewind(2) = %d", dec.Pos())
	}
	fresh := m.NewDecoder(nil)
	fresh.Step(3)
	fresh.Step(1)
	for _, id := range []int{9, 2, 6} {
		sameBits(t, "rewound", dec.Step(id), fresh.Step(id))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rewind beyond Pos did not panic")
		}
	}()
	dec.Rewind(dec.Pos() + 1)
}

// A decoder that has decoded a whole window allocates nothing per step: the
// KV caches write into the slots the first window created, and the residual
// stream, attention buffers and logits are the decoder's scratch.
func TestDecoderStepAllocatesNothingAfterTheFirstWindow(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg, 13)
	dec := m.NewDecoder(nil)
	for pos := 0; pos < cfg.MaxSeq; pos++ {
		dec.Step(pos % cfg.Vocab)
	}
	step := func() {
		if dec.Pos() == cfg.MaxSeq {
			dec.Reset()
		}
		dec.Step(3)
	}
	if a := testing.AllocsPerRun(2*cfg.MaxSeq, step); a != 0 {
		t.Fatalf("Decoder.Step after the first window allocates %v objects, want 0", a)
	}
}

func TestHookInvocationOrder(t *testing.T) {
	m := New(tinyConfig(), 17)
	ids := []int{1, 2, 3}
	var calls []int
	hook := func(layer int, x tensor.Vec) tensor.Vec {
		calls = append(calls, layer)
		return m.Blocks[layer].MLP.Apply(x)
	}
	dec := m.NewDecoder(hook)
	for _, id := range ids {
		dec.Step(id)
	}
	// Token-major: each token passes through both layers before the next.
	want := []int{0, 1, 0, 1, 0, 1}
	if len(calls) != len(want) {
		t.Fatalf("hook called %d times, want %d", len(calls), len(want))
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("hook order %v, want %v", calls, want)
		}
	}
}

func TestDenseHookMatchesNilHook(t *testing.T) {
	m := New(tinyConfig(), 19)
	a := m.NewDecoder(nil)
	b := m.NewDecoder(func(layer int, x tensor.Vec) tensor.Vec {
		return m.Blocks[layer].MLP.Apply(x)
	})
	for _, id := range []int{5, 6, 7, 8} {
		sameBits(t, "dense hook", b.Step(id), a.Step(id))
	}
}

// MLPInputs is the hook's view of the dense forward (refForward, window by
// window): layer l's inputs in token order, the same first maxTokens on
// every layer even when the budget ends inside a window.
func TestMLPInputsAreWhatTheHookSees(t *testing.T) {
	m := New(tinyConfig(), 23)
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2}
	seen := make([][]tensor.Vec, len(m.Blocks))
	refForward(m, ids[:5], func(layer int, x tensor.Vec) tensor.Vec {
		seen[layer] = append(seen[layer], x.Clone())
		return m.Blocks[layer].MLP.Apply(x)
	})
	refForward(m, ids[5:10], func(layer int, x tensor.Vec) tensor.Vec {
		if len(seen[layer]) < 7 {
			seen[layer] = append(seen[layer], x.Clone())
		}
		return m.Blocks[layer].MLP.Apply(x)
	})
	got := MLPInputs(m, ids, 5, 7)
	for l := range seen {
		if len(got[l]) != 7 {
			t.Fatalf("layer %d: %d inputs, want 7", l, len(got[l]))
		}
		for i, x := range seen[l] {
			for j := range x {
				if math.Float32bits(got[l][i][j]) != math.Float32bits(x[j]) {
					t.Fatalf("layer %d input %d differs from the hook's", l, i)
				}
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New(tinyConfig(), 29)
	c := m.Clone()
	src, dst := m.Params(), c.Params()
	for i := range src {
		for j, v := range src[i].W.Data {
			if math.Float32bits(dst[i].W.Data[j]) != math.Float32bits(v) {
				t.Fatalf("%s[%d] = %v in the clone, %v in the original", src[i].Name, j, dst[i].W.Data[j], v)
			}
		}
	}
	dst[0].W.Data[0]++
	if src[0].W.Data[0] == dst[0].W.Data[0] {
		t.Fatal("the clone shares weights with the original")
	}
}

func TestPerplexityUniformUntrained(t *testing.T) {
	// A zero-initialized head gives near-uniform predictions only after
	// training; instead check perplexity is finite and positive, and that
	// an empty stream yields 0.
	m := New(tinyConfig(), 23)
	toks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2}
	p := Perplexity(m, toks, 6, nil)
	if p <= 1 || math.IsInf(p, 0) || math.IsNaN(p) {
		t.Fatalf("perplexity = %v", p)
	}
	if Perplexity(m, []int{1}, 6, nil) != 0 {
		t.Fatal("too-short stream should yield 0")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	m := New(tinyConfig(), 43)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg != m.Cfg {
		t.Fatalf("config mismatch: %+v vs %+v", m2.Cfg, m.Cfg)
	}
	a, b := m.NewDecoder(nil), m2.NewDecoder(nil)
	for _, id := range []int{1, 2, 3, 4} {
		sameBits(t, "loaded model", b.Step(id), a.Step(id))
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	m := New(tinyConfig(), 47)
	path := t.TempDir() + "/ck.bin"
	if err := SaveCheckpointFile(path, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg.Name != "tiny" {
		t.Fatal("name not preserved")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("garbage data here"))); err == nil {
		t.Fatal("expected error on garbage")
	}
}

func TestConfigFor(t *testing.T) {
	for _, name := range append(AnalogNames(), ReluFiedSim) {
		for _, scale := range []Scale{ScaleTest, ScalePaper} {
			cfg, err := ConfigFor(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s at scale %d: %v", name, scale, err)
			}
		}
	}
	if _, err := ConfigFor("nope", ScaleTest); err == nil {
		t.Fatal("expected unknown-analog error")
	}
	// ReLU-fied analog uses ReLU.
	cfg, _ := ConfigFor(ReluFiedSim, ScalePaper)
	if cfg.Act != nn.ActReLU {
		t.Fatal("relufied analog should use ReLU")
	}
	// Size ordering: med > mini.
	med, _ := ConfigFor(Phi3MedSim, ScalePaper)
	mini, _ := ConfigFor(Phi3MiniSim, ScalePaper)
	if med.Dim <= mini.Dim {
		t.Fatal("phi3med analog should be wider than phi3mini")
	}
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"paper", ScalePaper, true},
		{"test", ScaleTest, true},
		{"tset", 0, false},
	} {
		got, err := ParseScale(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestWeightCounts(t *testing.T) {
	m := New(tinyConfig(), 53)
	mlp := m.MLPWeightCount()
	if mlp != 2*3*16*24 {
		t.Fatalf("MLPWeightCount = %d", mlp)
	}
	total := nn.CountParams(m)
	if m.StaticWeightCount() != total-mlp {
		t.Fatal("static/MLP partition doesn't sum to total")
	}
}
