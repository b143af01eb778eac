package prune

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// calib generates correlated calibration inputs (x = M z + ε with a shared
// low-rank mixing matrix). Correlation is what gives the OBS compensation
// room to work — i.i.d. inputs make the Hessian diagonal and SparseGPT
// degenerates to magnitude pruning, which real activations never do.
func calib(seed uint64, n, dim int) []tensor.Vec {
	rng := tensor.NewRNG(seed)
	rank := dim/4 + 1
	mix := tensor.NewMat(dim, rank)
	mix.RandNorm(rng, 1)
	xs := make([]tensor.Vec, n)
	for i := range xs {
		z := tensor.NewVec(rank)
		for j := range z {
			z[j] = rng.NormFloat32()
		}
		x := tensor.MatVec(mix, z, nil)
		for j := range x {
			x[j] += 0.3 * rng.NormFloat32()
		}
		xs[i] = x
	}
	return xs
}

func matrixSparsity(w *tensor.Mat) float64 {
	zero := 0
	for _, x := range w.Data {
		if x == 0 {
			zero++
		}
	}
	return float64(zero) / float64(len(w.Data))
}

func TestSparseGPTUnstructuredSparsityLevel(t *testing.T) {
	rng := tensor.NewRNG(1)
	w := tensor.NewMat(16, 32)
	w.RandNorm(rng, 1)
	xs := calib(2, 128, 32)
	if err := Sweep(w, xs, MaskPlan(Unstructured, 0.5)); err != nil {
		t.Fatal(err)
	}
	if got := matrixSparsity(w); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("sparsity = %v, want ~0.5", got)
	}
}

func TestSparseGPT24Pattern(t *testing.T) {
	rng := tensor.NewRNG(3)
	w := tensor.NewMat(8, 32)
	w.RandNorm(rng, 1)
	xs := calib(4, 128, 32)
	if err := Sweep(w, xs, MaskPlan(Semi2of4, 0.5)); err != nil {
		t.Fatal(err)
	}
	// Every aligned group of 4 must have exactly 2 zeros.
	for r := 0; r < w.Rows; r++ {
		for g := 0; g < w.Cols; g += 4 {
			zeros := 0
			for j := g; j < g+4; j++ {
				if w.At(r, j) == 0 {
					zeros++
				}
			}
			if zeros != 2 {
				t.Fatalf("row %d group %d has %d zeros, want 2", r, g, zeros)
			}
		}
	}
}

func TestSparseGPT48Pattern(t *testing.T) {
	rng := tensor.NewRNG(5)
	w := tensor.NewMat(4, 32)
	w.RandNorm(rng, 1)
	xs := calib(6, 96, 32)
	if err := Sweep(w, xs, MaskPlan(Semi4of8, 0.5)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < w.Rows; r++ {
		for g := 0; g < w.Cols; g += 8 {
			zeros := 0
			for j := g; j < g+8; j++ {
				if w.At(r, j) == 0 {
					zeros++
				}
			}
			if zeros != 4 {
				t.Fatalf("row %d group %d has %d zeros, want 4", r, g, zeros)
			}
		}
	}
}

// The whole point of SparseGPT: error compensation beats magnitude pruning
// on the calibration objective ‖W X − Ŵ X‖².
func TestSparseGPTBeatsMagnitudeOnCalibrationLoss(t *testing.T) {
	rng := tensor.NewRNG(7)
	orig := tensor.NewMat(24, 48)
	orig.RandNorm(rng, 1)
	xs := calib(8, 256, 48)
	reconErr := func(w *tensor.Mat) float64 {
		var s float64
		for _, x := range xs {
			yo := tensor.MatVec(orig, x, nil)
			yp := tensor.MatVec(w, x, nil)
			for i := range yo {
				d := float64(yo[i] - yp[i])
				s += d * d
			}
		}
		return s
	}
	sgpt := orig.Clone()
	if err := Sweep(sgpt, xs, MaskPlan(Unstructured, 0.5)); err != nil {
		t.Fatal(err)
	}
	mag := orig.Clone()
	MagnitudeMatrix(mag, 0.5)
	eS, eM := reconErr(sgpt), reconErr(mag)
	if eS >= eM {
		t.Fatalf("SparseGPT error %.4g not below magnitude error %.4g", eS, eM)
	}
}

func TestMagnitudeMatrix(t *testing.T) {
	w := tensor.NewMat(1, 4)
	copy(w.Data, []float32{0.1, -5, 0.2, 3})
	MagnitudeMatrix(w, 0.5)
	if w.Data[0] != 0 || w.Data[2] != 0 || w.Data[1] == 0 || w.Data[3] == 0 {
		t.Fatalf("magnitude pruning wrong: %v", w.Data)
	}
}

func trainedTiny(t *testing.T) (*model.Model, []int, []int) {
	t.Helper()
	tok := data.NewTokenizer()
	splits := data.NewSplits(21, 12000, 2500)
	cfg := model.Config{
		Name: "tiny-prune", Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 9)
	opts := model.DefaultTrainOpts()
	opts.Steps = 80
	opts.Batch = 2
	opts.SeqLen = 31
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		t.Fatal(err)
	}
	return m, tok.Encode(splits.Calib), tok.Encode(splits.Test)
}

func TestSparseGPTModelEndToEnd(t *testing.T) {
	m, calibToks, testToks := trainedTiny(t)
	pruned, err := SparseGPTModel(m, calibToks, 31, Unstructured, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := MLPSparsity(pruned); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("model MLP sparsity %v", got)
	}
	if got := MLPSparsity(m); got > 0.01 {
		t.Fatal("original model was modified")
	}
	dense := model.Perplexity(m, testToks[:1200], 31, nil)
	sparse := model.Perplexity(pruned, testToks[:1200], 31, nil)
	if sparse < dense {
		t.Fatalf("pruned model improbably better: %v < %v", sparse, dense)
	}
	// It should still be a language model, not noise.
	if sparse > dense*6 {
		t.Fatalf("pruned model destroyed: %v vs dense %v", sparse, dense)
	}
	// Semi-structured 2:4 hurts more than unstructured (paper Table 1).
	semi, err := SparseGPTModel(m, calibToks, 31, Semi2of4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	semiPPL := model.Perplexity(semi, testToks[:1200], 31, nil)
	if semiPPL < sparse {
		t.Fatalf("2:4 (%v) should not beat unstructured (%v)", semiPPL, sparse)
	}
}

func TestPatternString(t *testing.T) {
	if Unstructured.String() != "unstructured" || Semi2of4.String() != "2:4" || Semi4of8.String() != "4:8" {
		t.Fatal("pattern names wrong")
	}
}

// 64 tokens in windows of 31: the third window crosses the budget, and
// every layer, not only the first, must take its first two tokens.
func TestCalibrationActivationsShape(t *testing.T) {
	m, calibToks, _ := trainedTiny(t)
	mlpIn, gluAct := CalibrationActivations(m, calibToks, 31, 64)
	if len(mlpIn) != 2 || len(gluAct) != 2 {
		t.Fatal("wrong layer count")
	}
	for l := range mlpIn {
		if len(mlpIn[l]) != 64 || len(gluAct[l]) != 64 {
			t.Fatalf("layer %d: %d MLP inputs and %d GLU activations, want 64 each", l, len(mlpIn[l]), len(gluAct[l]))
		}
	}
	if len(mlpIn[0][0]) != 16 || len(gluAct[0][0]) != 32 {
		t.Fatal("activation dimensions wrong")
	}
}
