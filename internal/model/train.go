package model

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TrainOpts controls From-scratch language-model training.
type TrainOpts struct {
	Steps  int
	Batch  int    // sequences per optimizer step
	SeqLen int    // tokens per sequence
	Seed   uint64 // window-sampling seed
}

const (
	trainLR     = 3e-3 // base Adam learning rate
	trainWarmup = 20   // warmup steps of the cosine schedule
)

// DefaultTrainOpts returns the settings used by the experiment drivers.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{Steps: 300, Batch: 4, SeqLen: 64, Seed: 1234}
}

// Train fits the model on the token stream with Adam, sampling random
// windows each step, and returns the final running loss (nats/token).
func Train(m *Model, tokens []int, opts TrainOpts) (float64, error) {
	if opts.SeqLen >= m.Cfg.MaxSeq {
		opts.SeqLen = m.Cfg.MaxSeq - 1
	}
	if len(tokens) < opts.SeqLen+2 {
		return 0, fmt.Errorf("model: training stream of %d tokens too short for seqlen %d", len(tokens), opts.SeqLen)
	}
	rng := tensor.NewRNG(opts.Seed)
	opt := nn.NewAdam(trainLR)
	params := m.Params()
	running := 0.0
	for step := 0; step < opts.Steps; step++ {
		var batchLoss float64
		for b := 0; b < opts.Batch; b++ {
			start := rng.Intn(len(tokens) - opts.SeqLen - 1)
			ids := tokens[start : start+opts.SeqLen]
			targets := tokens[start+1 : start+opts.SeqLen+1]
			batchLoss += m.TrainStep(ids, targets)
		}
		batchLoss /= float64(opts.Batch)
		// Average the accumulated gradients over the batch.
		if opts.Batch > 1 {
			inv := float32(1) / float32(opts.Batch)
			for _, p := range params {
				for i := range p.G.Data {
					p.G.Data[i] *= inv
				}
			}
		}
		opt.Step(params, nn.CosineLR(step, trainWarmup, opts.Steps))
		if running == 0 {
			running = batchLoss
		} else {
			running = 0.95*running + 0.05*batchLoss
		}
	}
	if err := nn.CheckFinite(m); err != nil {
		return running, err
	}
	return running, nil
}

// Perplexity evaluates teacher-forced perplexity of the model (with
// optional MLP hook) over the token stream, chunked into windows of
// winLen tokens. Predictions use each window's tokens 1..n; the first
// token of each window is context only.
//
// Windows are independent for the dense model, so with a nil hook they fan
// out across the worker pool; per-window partial sums are reduced in window
// order, making the result bit-identical for any worker count. Hooked
// evaluation stays sequential — hooks may carry state across tokens.
func Perplexity(m *Model, tokens []int, winLen int, hook MLPHook) float64 {
	if winLen >= m.Cfg.MaxSeq {
		winLen = m.Cfg.MaxSeq
	}
	nWin := 0
	if winLen > 0 {
		nWin = len(tokens) / winLen
	}
	if nWin == 0 {
		return 0
	}
	ces := make([]float64, nWin)
	counts := make([]int, nWin)
	window := func(w int) {
		ids := tokens[w*winLen : (w+1)*winLen]
		logits := m.Forward(ids, hook)
		var ce float64
		for t := 0; t+1 < len(ids); t++ {
			lse := tensor.LogSumExp(logits[t])
			ce += lse - float64(logits[t][ids[t+1]])
			counts[w]++
		}
		ces[w] = ce
	}
	if hook == nil {
		parallel.For(nWin, 1, func(lo, hi int) {
			for w := lo; w < hi; w++ {
				window(w)
			}
		})
	} else {
		for w := 0; w < nWin; w++ {
			window(w)
		}
	}
	var totalCE float64
	var count int
	for w := 0; w < nWin; w++ {
		totalCE += ces[w]
		count += counts[w]
	}
	if count == 0 {
		return 0
	}
	return nn.Perplexity(totalCE / float64(count))
}

// ContinuationLogProb returns the mean per-token log-probability of the
// continuation tokens given the prompt tokens, under an optional hook.
// This is the scoring rule for multiple-choice evaluation.
func ContinuationLogProb(m *Model, prompt, cont []int, hook MLPHook) float64 {
	if len(cont) == 0 {
		return 0
	}
	ids := append(append([]int{}, prompt...), cont...)
	if len(ids) > m.Cfg.MaxSeq {
		ids = ids[len(ids)-m.Cfg.MaxSeq:]
	}
	logits := m.Forward(ids, hook)
	// Position t predicts ids[t+1]; continuation tokens occupy the tail.
	first := len(ids) - len(cont)
	var lp float64
	for t := first - 1; t+1 < len(ids); t++ {
		lse := tensor.LogSumExp(logits[t])
		lp += float64(logits[t][ids[t+1]]) - lse
	}
	return lp / float64(len(cont))
}
