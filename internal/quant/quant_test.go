package quant

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// calib generates correlated calibration inputs (shared low-rank mixing
// plus noise), matching the structure of real activations that GPTQ's
// error propagation exploits.
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

func reconErr(orig, q *tensor.Mat, xs []tensor.Vec) float64 {
	var s float64
	for _, x := range xs {
		yo := tensor.MatVec(orig, x, nil)
		yq := tensor.MatVec(q, x, nil)
		for i := range yo {
			d := float64(yo[i] - yq[i])
			s += d * d
		}
	}
	return s
}

func TestBQMatrixErrorDecreasesWithBits(t *testing.T) {
	rng := tensor.NewRNG(1)
	orig := tensor.NewMat(16, 32)
	orig.RandNorm(rng, 1)
	xs := calib(2, 128, 32)
	var prev float64 = math.Inf(1)
	for _, bits := range []int{2, 3, 4, 8} {
		w := orig.Clone()
		if err := prune.Sweep(w, xs, RoundPlan(bits)); err != nil {
			t.Fatal(err)
		}
		e := reconErr(orig, w, xs)
		if e > prev {
			t.Fatalf("error at %d bits (%.4g) above %d-1 bits (%.4g)", bits, e, bits, prev)
		}
		prev = e
	}
	// 8-bit is near-lossless: orders of magnitude below the 2-bit error.
	w2 := orig.Clone()
	if err := prune.Sweep(w2, xs, RoundPlan(2)); err != nil {
		t.Fatal(err)
	}
	if e2 := reconErr(orig, w2, xs); prev > e2/50 {
		t.Fatalf("8-bit error %v not far below 2-bit error %v", prev, e2)
	}
}

func TestBQQuantizedValuesOnGrid(t *testing.T) {
	// With one block spanning every column, each row shares one scale/zero
	// pair, so its values land on at most 2^bits levels.
	rng := tensor.NewRNG(3)
	w := tensor.NewMat(4, 16)
	w.RandNorm(rng, 1)
	if err := prune.Sweep(w, calib(4, 64, 16), RoundPlan(2)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < w.Rows; r++ {
		levels := map[float32]bool{}
		for j := 0; j < w.Cols; j++ {
			levels[w.At(r, j)] = true
		}
		if len(levels) > 4 {
			t.Fatalf("row %d has %d distinct levels for 2-bit quant", r, len(levels))
		}
	}
}

func TestBQBeatsRTNStyleNoCompensation(t *testing.T) {
	// GPTQ error propagation should beat plain rounding at the same bit
	// width on the calibration objective.
	rng := tensor.NewRNG(5)
	orig := tensor.NewMat(24, 48)
	orig.RandNorm(rng, 1)
	xs := calib(6, 256, 48)
	gptq := orig.Clone()
	if err := prune.Sweep(gptq, xs, RoundPlan(2)); err != nil {
		t.Fatal(err)
	}
	// RTN: quantize each group without compensation.
	rtn := orig.Clone()
	maxq := (1 << 2) - 1
	for r := 0; r < rtn.Rows; r++ {
		row := rtn.Row(r)
		for g := 0; g < len(row); g += prune.BlockSize {
			end := g + prune.BlockSize
			if end > len(row) {
				end = len(row)
			}
			grp := make([]float64, end-g)
			for i := g; i < end; i++ {
				grp[i-g] = float64(row[i])
			}
			scale, zero := groupParams(grp, maxq)
			for i := g; i < end; i++ {
				row[i] = quantizeValue(row[i], scale, zero, maxq)
			}
		}
	}
	eG, eR := reconErr(orig, gptq, xs), reconErr(orig, rtn, xs)
	if eG >= eR {
		t.Fatalf("GPTQ error %.4g not below RTN error %.4g", eG, eR)
	}
}

func TestVQMatrixCodebookSize(t *testing.T) {
	rng := tensor.NewRNG(7)
	w := tensor.NewMat(16, 32)
	w.RandNorm(rng, 1)
	VQMatrix(w, 2) // 2 bits × 2-dim → 16 centroids
	pairs := map[[2]float32]bool{}
	for r := 0; r < w.Rows; r++ {
		row := w.Row(r)
		for c := 0; c < len(row); c += 2 {
			pairs[[2]float32{row[c], row[c+1]}] = true
		}
	}
	if len(pairs) > 16 {
		t.Fatalf("found %d distinct pairs for a 16-entry codebook", len(pairs))
	}
	if len(pairs) < 2 {
		t.Fatal("degenerate codebook")
	}
}

func TestVQErrorDecreasesWithBits(t *testing.T) {
	rng := tensor.NewRNG(9)
	orig := tensor.NewMat(16, 32)
	orig.RandNorm(rng, 1)
	xs := calib(10, 64, 32)
	w2 := orig.Clone()
	VQMatrix(w2, 2)
	w3 := orig.Clone()
	VQMatrix(w3, 3)
	if reconErr(orig, w3, xs) >= reconErr(orig, w2, xs) {
		t.Fatal("3-bit VQ should beat 2-bit VQ")
	}
}

func TestBytesPerWeight(t *testing.T) {
	if got := BQBytesPerWeight(4); math.Abs(got-(4+1.0)/8) > 1e-9 {
		t.Fatalf("BQ4 bytes/weight = %v", got)
	}
	if got := VQBytesPerWeight(3); got != 3.0/8 {
		t.Fatalf("VQ3 bytes/weight = %v", got)
	}
}

func TestModelQuantEndToEnd(t *testing.T) {
	tok := data.NewTokenizer()
	splits := data.NewSplits(31, 12000, 2500)
	cfg := model.Config{
		Name: "tiny-quant", Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 11)
	topts := model.DefaultTrainOpts()
	topts.Steps = 80
	topts.Batch = 2
	topts.SeqLen = 31
	if _, err := model.Train(m, tok.Encode(splits.Train), topts); err != nil {
		t.Fatal(err)
	}
	testToks := tok.Encode(splits.Test)[:1200]
	calibToks := tok.Encode(splits.Calib)
	dense := model.Perplexity(m, testToks, 31, nil)

	bq4, err := BQModel(m, calibToks, 31, 4)
	if err != nil {
		t.Fatal(err)
	}
	p4 := model.Perplexity(bq4, testToks, 31, nil)
	bq2, err := BQModel(m, calibToks, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2 := model.Perplexity(bq2, testToks, 31, nil)
	if p4 > p2 {
		t.Fatalf("BQ4 (%v) should beat BQ2 (%v)", p4, p2)
	}
	if p4 > dense*2 {
		t.Fatalf("BQ4 ppl %v too far above dense %v", p4, dense)
	}
	vq3 := VQModel(m, 3)
	pv3 := model.Perplexity(vq3, testToks, 31, nil)
	if pv3 > dense*4 {
		t.Fatalf("VQ3 destroyed the model: %v vs %v", pv3, dense)
	}
	// Original untouched.
	again := model.Perplexity(m, testToks, 31, nil)
	if again != dense {
		t.Fatal("quantization modified the original model")
	}
}
