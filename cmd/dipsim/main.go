// Command dipsim is a standalone hardware-simulator explorer: it sweeps
// cache policies and device parameters for one model and scheme and prints
// the resulting operating points, useful for what-if deployment questions
// without rerunning full experiments.
//
// Usage:
//
//	dipsim -model mistral7b-sim -density 0.5 -gamma 0.2
//	dipsim -model phi3med-sim -dram 0.3,0.5,0.8 -flash 0.5e9,1e9,2e9
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/sparsity"
)

func main() {
	var (
		name    = flag.String("model", model.Mistral7BSim, "model analog name")
		density = flag.Float64("density", 0.5, "target MLP density")
		gamma   = flag.Float64("gamma", 0.2, "DIP-CA penalty (1 = plain DIP)")
		drams   = flag.String("dram", "0.5", "comma-separated DRAM fractions of model bytes")
		flashes = flag.String("flash", "1e9", "comma-separated flash bandwidths (bytes/s)")
		scale   = flag.String("scale", "paper", "paper | test")
		ckpt    = flag.String("ckpt", "", "checkpoint directory")
	)
	flag.Parse()
	sc, err := model.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dipsim: -scale: %v\n", err)
		os.Exit(2)
	}
	lab := experiments.NewLab(sc)
	lab.CheckpointDir = *ckpt
	lab.Log = os.Stderr
	m := lab.Model(*name)
	test := lab.TestTokens(0)

	var scheme sparsity.Scheme
	if *gamma >= 1 {
		scheme = sparsity.NewDIP(*density)
	} else {
		scheme = sparsity.NewDIPCA(*density, *gamma)
	}
	policies := []cache.Policy{cache.PolicyNone, cache.PolicyLRU, cache.PolicyLFU}
	if ca, ok := scheme.(interface{ IsCacheAware() bool }); !ok || !ca.IsCacheAware() {
		policies = append(policies, cache.PolicyBelady)
	}
	fmt.Printf("%-10s %-8s %-8s %-8s %-10s %-10s %-8s\n",
		"dram_frac", "flash", "policy", "ppl", "tok_s", "latency_s", "hit_rate")
	for _, df := range parseFloats(*drams) {
		for _, fb := range parseFloats(*flashes) {
			dev := hwsim.A18Like()
			dev.DRAMFraction = df
			dev.FlashBandwidth = fb
			for _, pol := range policies {
				pt, err := eval.SystemEvaluate(m, scheme, test, eval.SystemConfig{
					Device: dev, Policy: pol, MaxTokens: 2048,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "dipsim: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("%-10.2f %-8.1e %-8s %-8.3f %-10.3f %-10.4f %-8.3f\n",
					df, fb, pol, pt.PPL, pt.Throughput, pt.LatencyS, pt.HitRate)
			}
		}
	}
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dipsim: bad number %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
