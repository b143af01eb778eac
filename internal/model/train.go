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
			batchLoss += m.TrainStep(ids, targets, nil)
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
			running = float64(0.95*running) + float64(0.05*batchLoss)
		}
	}
	if err := nn.CheckFinite(m); err != nil {
		return running, err
	}
	return running, nil
}

// Perplexity evaluates teacher-forced perplexity of the model (with
// optional MLP hook) over the token stream, chunked into windows of winLen
// tokens (resolved by Model.Window). Each window is decoded from position
// zero; its tokens 1..n are predicted, and its last token is stepped as
// context only, so a hook sees every token of every window.
//
// Windows are independent for the dense model, so with a nil hook they fan
// out across the worker pool, each block of windows on its own decoder;
// per-window partial sums are reduced in window order, making the result
// bit-identical for any worker count. Hooked evaluation steps one decoder
// through the windows in order — hooks may carry state across tokens.
func Perplexity(m *Model, tokens []int, winLen int, hook MLPHook) float64 {
	winLen = m.Window(winLen)
	nWin := len(tokens) / winLen
	if nWin <= 0 {
		return 0
	}
	ces := make([]float64, nWin)
	windows := func(dec *Decoder, lo, hi int) {
		for w := lo; w < hi; w++ {
			ids := tokens[w*winLen : (w+1)*winLen]
			dec.Reset()
			var ce float64
			for t, id := range ids {
				logits := dec.Step(id)
				if t+1 < len(ids) {
					ce += tensor.LogSumExp(logits) - float64(logits[ids[t+1]])
				}
			}
			ces[w] = ce
		}
	}
	if hook == nil {
		parallel.For(nWin, 1, func(lo, hi int) { windows(m.NewDecoder(nil), lo, hi) })
	} else {
		windows(m.NewDecoder(hook), 0, nWin)
	}
	var totalCE float64
	for _, ce := range ces {
		totalCE += ce
	}
	if winLen == 1 {
		return 0 // no token is predicted
	}
	return nn.Perplexity(totalCE / float64(nWin*(winLen-1)))
}

// ChoiceLogProbs scores multiple-choice continuations: out[c] is the mean
// per-token log-probability of conts[c] after the prompt (0 for an empty
// continuation), as the model reads prompt+conts[c] left-trimmed to MaxSeq.
// The prompt is decoded once on dec; each choice that fits beside it scores
// its first token on the prompt's last logits and then extends the prompt's
// KV state after a Rewind. A choice whose context is trimmed is decoded
// again from position zero. The hook, if any, must keep no per-call state:
// it sees the prompt once, not once per choice.
//
// It panics unless every non-empty continuation has a context token before
// it: the prompt must be non-empty and the continuation shorter than MaxSeq.
func ChoiceLogProbs(dec *Decoder, prompt []int, conts [][]int, out []float64) {
	maxSeq := dec.m.Cfg.MaxSeq
	decode := func(ids []int) (last tensor.Vec) {
		dec.Reset()
		for _, id := range ids {
			last = dec.Step(id)
		}
		return last
	}
	// score parks the first token's log-probability in out[c]; extend adds
	// the rest's, stepping on from the state the first token's context left.
	score := func(c int, logits tensor.Vec) {
		out[c] = float64(logits[conts[c][0]]) - tensor.LogSumExp(logits)
	}
	extend := func(c int) {
		cont := conts[c]
		for t := 1; t < len(cont); t++ {
			logits := dec.Step(cont[t-1])
			out[c] += float64(logits[cont[t]]) - tensor.LogSumExp(logits)
		}
		out[c] /= float64(len(cont))
	}
	// A non-empty choice fits when prompt and choice share one window.
	fits := func(cont []int) bool { return len(cont) > 0 && len(prompt)+len(cont) <= maxSeq }
	var last tensor.Vec // the prompt's last logits, valid until the next Step
	for c, cont := range conts {
		out[c] = 0
		if len(cont) > 0 && (len(prompt) == 0 || len(cont) >= maxSeq) {
			panic("model: ChoiceLogProbs needs a context token before each continuation")
		}
		if fits(cont) {
			if last == nil {
				last = decode(prompt)
			}
			score(c, last)
		}
	}
	for c, cont := range conts {
		if fits(cont) {
			dec.Rewind(len(prompt))
			extend(c)
		}
	}
	for c, cont := range conts {
		if len(cont) > 0 && !fits(cont) {
			score(c, decode(prompt[len(prompt)+len(cont)-maxSeq:]))
			extend(c)
		}
	}
}
