// Quickstart: train a small SwiGLU language model on the synthetic corpus,
// apply Dynamic Input Pruning at 50% MLP density, and compare perplexity
// and effective weight traffic against the dense model — the minimal
// end-to-end tour of the library.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sparsity"
)

func main() {
	// 1. Data: a deterministic synthetic corpus with train/test splits.
	tok := data.NewTokenizer()
	splits := data.NewSplits(42, 60000, 10000)
	trainToks := tok.Encode(splits.Train)
	testToks := tok.Encode(splits.Test)[:4000]

	// 2. Model: a small SwiGLU transformer trained from scratch (~20 s).
	cfg := model.Config{
		Name: model.Mistral7BSim, Vocab: tok.VocabSize(),
		Dim: 48, Layers: 3, Heads: 4, KVHeads: 2, DFF: 144,
		MaxSeq: 96, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 7)
	opts := model.DefaultTrainOpts()
	opts.Steps = 200
	opts.Log = os.Stderr
	fmt.Println("training the base model...")
	if _, err := model.Train(m, trainToks, opts); err != nil {
		log.Fatal(err)
	}

	// 3. Quality: dense vs DIP at 50% MLP density.
	win := 64
	densePPL, _ := eval.PerplexityUnderScheme(m, sparsity.Dense{}, testToks, win)
	dipPPL, density := eval.PerplexityUnderScheme(m, sparsity.NewDIP(0.5), testToks, win)
	fmt.Printf("\ndense ppl     : %6.3f (density 1.00)\n", densePPL)
	fmt.Printf("DIP   ppl     : %6.3f (density %.2f)\n", dipPPL, density)

	// 4. System: coupled cache + transfer simulation on an A18-class
	//    device with DRAM fitting half the 4-bit model.
	sys := eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU}
	sys.MaxTokens = 2000
	densePt, err := eval.SystemEvaluate(m, sparsity.Dense{}, testToks, sys)
	if err != nil {
		log.Fatal(err)
	}
	dipPt, err := eval.SystemEvaluate(m, sparsity.NewDIP(0.5), testToks, sys)
	if err != nil {
		log.Fatal(err)
	}
	caPt, err := eval.SystemEvaluate(m, sparsity.NewDIPCA(0.5, 0.2), testToks, sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-8s %8s %10s %10s\n", "scheme", "ppl", "tok/s", "hit rate")
	for _, pt := range []eval.Point{densePt, dipPt, caPt} {
		fmt.Printf("%-8s %8.3f %10.3f %9.1f%%\n", pt.Scheme, pt.PPL, pt.Throughput, 100*pt.HitRate)
	}
	fmt.Println("\nDIP-CA trades a small perplexity increase for cache hits and throughput.")
}
