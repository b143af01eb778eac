// Ondevice simulates the paper's motivating scenario: an assistant
// generating text on a DRAM-constrained phone. It decodes token-by-token
// with the KV cache, while DIP-CA masks each MLP against the live DRAM
// weight-cache state and the transfer meter prices every token — printing
// the generated text alongside the simulated tokens/second as the cache
// warms up.
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
	tok := data.NewTokenizer()
	splits := data.NewSplits(1234, 60000, 4000)

	cfg := model.Config{
		Name: model.Phi3MiniSim, Vocab: tok.VocabSize(),
		Dim: 32, Layers: 3, Heads: 4, KVHeads: 2, DFF: 96,
		MaxSeq: 96, Act: nn.ActSiLU,
	}
	m := model.New(cfg, 99)
	opts := model.DefaultTrainOpts()
	opts.Steps = 200
	opts.Log = os.Stderr
	fmt.Println("training the assistant model...")
	if _, err := model.Train(m, tok.Encode(splits.Train), opts); err != nil {
		log.Fatal(err)
	}

	// Plan DRAM for a budget phone: only 40% of the model fits.
	dev := hwsim.A18Like()
	dev.DRAMFraction = 0.4
	scheme := sparsity.NewDIPCA(0.6, 0.2)
	plan, err := hwsim.NewPlan(m, dev, hwsim.PlanOpts{Groups: hwsim.ProbeGroups(scheme, m)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: DRAM %.0f%% of model (%.2f GB of %.2f GB), flash %.1f GB/s\n",
		100*dev.DRAMFraction, dev.DRAMFraction*plan.ModelBytes/1e9, plan.ModelBytes/1e9, dev.FlashBandwidth/1e9)

	mc := plan.NewCache(cache.PolicyLFU)
	meter := plan.NewMeter()
	hook := eval.Hook(m, scheme, eval.HookOpts{Cache: mc, Meter: meter})

	prompt := "the fox "
	fmt.Printf("\nprompt: %q\n", prompt)
	dec := m.NewDecoder(hook)
	var logits []float32
	for _, id := range tok.Encode(prompt) {
		logits = dec.Step(id)
	}
	fmt.Println("generation (tok/s is the simulated device rate):")
	out := make([]int, 0, 64)
	for i := 0; i < 64 && dec.Pos() < cfg.MaxSeq-1; i++ {
		next := argmax(logits)
		out = append(out, next)
		logits = dec.Step(next)
		if (i+1)%16 == 0 {
			stats := mc.TotalStats()
			fmt.Printf("  after %2d tokens: %6.2f tok/s, hit rate %4.1f%%\n",
				i+1, meter.Throughput(), 100*stats.HitRate())
		}
	}
	fmt.Printf("\noutput: %q\n", prompt+tok.Decode(out))
	fmt.Printf("final: %.2f tok/s at %.1f%% cache hit rate over %d decoded tokens\n",
		meter.Throughput(), 100*mc.TotalStats().HitRate(), meter.Tokens())
}

func argmax(v []float32) int {
	best, bestV := 0, v[0]
	for i, x := range v {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}
