// Command diptrain pretrains the model analogs and saves checkpoints that
// cmd/dipbench can reuse, so repeated experiment runs skip training.
//
// Usage:
//
//	diptrain -ckpt ckpts/                  # all analogs at paper scale
//	diptrain -ckpt ckpts/ -models phi3med-sim,relufied-sim
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
)

func main() {
	var (
		ckpt   = flag.String("ckpt", "checkpoints", "checkpoint directory")
		scale  = flag.String("scale", "paper", "paper | test")
		models = flag.String("models", "", "comma-separated analog names (default: all)")
	)
	flag.Parse()
	sc, err := model.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diptrain: -scale: %v\n", err)
		os.Exit(2)
	}
	names := append(model.AnalogNames(), model.ReluFiedSim)
	if *models != "" {
		names = strings.Split(*models, ",")
	}
	lab := experiments.NewLab(sc)
	lab.CheckpointDir = *ckpt
	lab.Log = os.Stderr
	for _, name := range names {
		start := time.Now() //lint:allow wallclock training progress annotation; checkpoints and ppl are seed-deterministic
		m := lab.Model(name)
		test := lab.TestTokens(0)
		ppl := model.Perplexity(m, test, lab.EvalWin(), nil)
		fmt.Printf("%-16s params %7d  test ppl %6.3f  (%v)\n",
			name, paramCount(m), ppl,
			time.Since(start).Round(time.Millisecond)) //lint:allow wallclock training progress annotation; checkpoints and ppl are seed-deterministic
	}
	fmt.Printf("checkpoints in %s\n", *ckpt)
}

func paramCount(m *model.Model) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Size()
	}
	return n
}
