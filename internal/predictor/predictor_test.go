package predictor

import (
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

func trainedTiny(t *testing.T, act nn.Activation, seed uint64) (*model.Model, []int, []int) {
	t.Helper()
	tok := data.NewTokenizer()
	splits := data.NewSplits(41, 12000, 2500)
	cfg := model.Config{
		Name: "tiny-pred", Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 48, MaxSeq: 32, Act: act,
	}
	m := model.New(cfg, seed)
	opts := model.DefaultTrainOpts()
	opts.Steps = 80
	opts.Batch = 2
	opts.SeqLen = 31
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		t.Fatal(err)
	}
	return m, tok.Encode(splits.Calib), tok.Encode(splits.Valid)
}

func TestPredictorLearnsPlantedRule(t *testing.T) {
	// Synthetic task: unit i is "active" iff x[i mod dim] > 0 — a linearly
	// decidable rule the predictor must learn nearly perfectly.
	rng := tensor.NewRNG(1)
	dim, dff := 8, 16
	p := NewPredictor(0, dim, 16, dff, rng)
	opt := nn.NewAdam(5e-3)
	var first, last float64
	for it := 0; it < 1500; it++ {
		x := tensor.NewVec(dim)
		for j := range x {
			x[j] = rng.NormFloat32()
		}
		target := make([]bool, dff)
		for i := 0; i < dff; i++ {
			target[i] = x[i%dim] > 0
		}
		loss := p.trainStep(x, target)
		if it == 0 {
			first = loss
		}
		last = loss
		opt.Step(p.Params(), 1)
	}
	if last > first/2 {
		t.Fatalf("predictor failed to learn planted rule: %.4f -> %.4f", first, last)
	}
	// Check accuracy on fresh samples.
	correct, total := 0, 0
	for s := 0; s < 50; s++ {
		x := tensor.NewVec(dim)
		for j := range x {
			x[j] = rng.NormFloat32()
		}
		scores := p.Score(x)
		for i := 0; i < dff; i++ {
			pred := scores[i] > 0
			want := x[i%dim] > 0
			if pred == want {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Fatalf("planted-rule accuracy %.3f too low", acc)
	}
}

func TestReluPredictableSwigluNot(t *testing.T) {
	// The Section 3.3 result: the same predictor protocol achieves far
	// higher top-K recall on a ReLU model than on a SwiGLU model.
	relu, reluCalib, reluValid := trainedTiny(t, nn.ActReLU, 7)
	silu, siluCalib, siluValid := trainedTiny(t, nn.ActSiLU, 7)
	opts := DefaultTrainOpts()
	opts.Epochs = 6
	opts.MaxTokens = 256
	pr := Train(relu, reluCalib, 31, opts)
	ps := Train(silu, siluCalib, 31, opts)
	recallRelu := RecallAtK(relu, pr, reluValid, 31, 0.5, 128)
	recallSilu := RecallAtK(silu, ps, siluValid, 31, 0.5, 128)
	t.Logf("recall@50%%: relu=%.3f silu=%.3f", recallRelu, recallSilu)
	if recallRelu <= recallSilu {
		t.Fatalf("expected ReLU recall (%.3f) above SwiGLU recall (%.3f)", recallRelu, recallSilu)
	}
	if recallRelu < 0.6 {
		t.Fatalf("ReLU model should be predictable, recall %.3f", recallRelu)
	}
}

func TestScoreFuncAndParamCount(t *testing.T) {
	m, calib, _ := trainedTiny(t, nn.ActSiLU, 9)
	opts := DefaultTrainOpts()
	opts.Epochs = 1
	opts.MaxTokens = 64
	set := Train(m, calib, 31, opts)
	if len(set.Per) != len(m.Blocks) {
		t.Fatal("one predictor per layer expected")
	}
	sf := set.ScoreFunc()
	x := tensor.NewVec(m.Cfg.Dim)
	x[0] = 1
	s := sf(1, x)
	if len(s) != m.Cfg.DFF {
		t.Fatalf("score length %d, want %d", len(s), m.Cfg.DFF)
	}
	wantPer := m.Cfg.Dim*(m.Cfg.Dim/2) + (m.Cfg.Dim/2)*m.Cfg.DFF
	if set.ParamCount() != wantPer*len(m.Blocks) {
		t.Fatalf("param count %d, want %d", set.ParamCount(), wantPer*len(m.Blocks))
	}
	// The set plugs into the Predictive scheme.
	scheme := &sparsity.Predictive{Rho: 0.5, Score: sf}
	y, ta := scheme.Forward(0, x, m.Blocks[0].MLP, nil)
	if len(y) != m.Cfg.Dim {
		t.Fatal("scheme output wrong size")
	}
	if len(ta.Groups[sparsity.GroupDown].Units) != m.Cfg.DFF/2 {
		t.Fatal("scheme kept wrong unit count")
	}
}

func TestRecallAtKEmptyStream(t *testing.T) {
	m, calib, _ := trainedTiny(t, nn.ActSiLU, 11)
	opts := DefaultTrainOpts()
	opts.Epochs = 1
	opts.MaxTokens = 32
	set := Train(m, calib, 31, opts)
	if got := RecallAtK(m, set, []int{1, 2}, 31, 0.5, 10); got != 0 {
		t.Fatalf("too-short stream recall = %v, want 0", got)
	}
}
