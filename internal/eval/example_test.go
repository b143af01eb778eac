package eval_test

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
)

// The library in one pass: train a tiny SwiGLU model on the synthetic
// corpus, then evaluate it dense, under Dynamic Input Pruning at 50% MLP
// density, and under cache-aware DIP, each coupled to the DRAM cache and
// flash transfer simulation of an A18-class device whose DRAM holds half
// the 4-bit model. Every number runs on the simulated clock, so the output
// is the same at any worker count. Another operating point (a smaller DRAM,
// a slower flash) is another hwsim.Device in SystemConfig.
func ExampleSystemEvaluate() {
	tok := data.NewTokenizer()
	splits := data.NewSplits(42, 14000, 3000)
	m := model.New(model.Config{
		Name: model.Mistral7BSim, Vocab: tok.VocabSize(), Dim: 16, Layers: 2,
		Heads: 2, KVHeads: 1, DFF: 32, MaxSeq: 32, Act: nn.ActSiLU,
	}, 7)
	opts := model.DefaultTrainOpts()
	opts.Steps, opts.Batch, opts.SeqLen = 100, 2, 31
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		panic(err)
	}

	test := tok.Encode(splits.Test)
	sys := eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, MaxTokens: 640}
	fmt.Printf("%-8s %7s %7s %8s %8s\n", "scheme", "density", "ppl", "tok/s", "hit rate")
	for _, s := range []sparsity.Scheme{sparsity.Dense{}, sparsity.NewDIP(0.5), sparsity.NewDIPCA(0.5, 0.2)} {
		pt, err := eval.SystemEvaluate(m, s, test, sys)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s %7.3f %7.3f %8.3f %8.3f\n", pt.Scheme, pt.Density, pt.PPL, pt.Throughput, pt.HitRate)
	}
	// Output:
	// scheme   density     ppl    tok/s hit rate
	// dense      1.000  14.176    0.476    0.375
	// dip        0.479  14.537    1.395    0.643
	// dip-ca     0.479  14.882    1.667    0.738
}
