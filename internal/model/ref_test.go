package model

import (
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// The whole-window inference pass the Decoder replaced, kept as its oracle:
// refForward is the old (*Model).Forward, and refPerplexity and
// refContinuationLogProb are the scorers that read it.

// mlpTokenGrain is the minimum tokens per parallel block in refForward's
// dense token loops.
const mlpTokenGrain = 4

// fwdScratch is one worker's reusable buffers for refForward's dense token
// loops: the post-norm input, the MLP intermediates, and the MLP output.
type fwdScratch struct {
	buf, out tensor.Vec
	mlp      nn.MLPScratch
}

// refForward computes logits for every position of ids, calling a non-nil
// hook layer-major: every token of layer l before any token of layer l+1.
// With a nil hook the MLP loop and the head fan out over the worker pool.
func refForward(m *Model, ids []int, hook MLPHook) []tensor.Vec {
	xs := m.Embed.Forward(ids)
	n := len(xs)
	nw := parallel.Workers(n, mlpTokenGrain)
	scr := make([]fwdScratch, nw)
	var hookBuf tensor.Vec
	if hook != nil {
		hookBuf = tensor.NewVec(m.Cfg.Dim)
	}
	for l, b := range m.Blocks {
		normed := make([]tensor.Vec, n)
		parallel.For(n, mlpTokenGrain, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				normed[t] = b.Norm1.Apply(xs[t], nil)
			}
		})
		attnOut, _ := b.Attn.Forward(normed)
		for t := range xs {
			xs[t].Add(attnOut[t])
		}
		if hook != nil {
			for _, x := range xs {
				b.Norm2.Apply(x, hookBuf)
				x.Add(hook(l, hookBuf))
			}
			continue
		}
		parallel.ForWorker(n, mlpTokenGrain, func(w, lo, hi int) {
			s := workerScratch(scr, w, m.Cfg.Dim)
			for t := lo; t < hi; t++ {
				b.Norm2.Apply(xs[t], s.buf)
				b.MLP.ApplyInto(s.buf, s.out, &s.mlp)
				xs[t].Add(s.out)
			}
		})
	}
	logits := make([]tensor.Vec, n)
	parallel.ForWorker(n, mlpTokenGrain, func(w, lo, hi int) {
		s := workerScratch(scr, w, m.Cfg.Dim)
		for t := lo; t < hi; t++ {
			m.NormF.Apply(xs[t], s.buf)
			logits[t] = m.Head.Apply(s.buf, nil)
		}
	})
	return logits
}

// workerScratch returns worker w's scratch slot, sized on first use, or a
// private one for a worker id beyond the slice.
func workerScratch(scr []fwdScratch, w, dim int) *fwdScratch {
	s := &fwdScratch{}
	if w < len(scr) {
		s = &scr[w]
	}
	if s.buf == nil {
		s.buf = tensor.NewVec(dim)
		s.out = tensor.NewVec(dim)
	}
	return s
}

// refPerplexity is Perplexity on refForward: windows of winLen (no
// Model.Window rule), per-window sums reduced in window order, nil-hook
// windows fanned out over the pool.
func refPerplexity(m *Model, tokens []int, winLen int, hook MLPHook) float64 {
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
		logits := refForward(m, ids, hook)
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

// refContinuationLogProb is the mean per-token log-probability of cont
// after prompt, from one refForward over prompt+cont left-trimmed to MaxSeq.
func refContinuationLogProb(m *Model, prompt, cont []int, hook MLPHook) float64 {
	if len(cont) == 0 {
		return 0
	}
	ids := append(append([]int{}, prompt...), cont...)
	if len(ids) > m.Cfg.MaxSeq {
		ids = ids[len(ids)-m.Cfg.MaxSeq:]
	}
	logits := refForward(m, ids, hook)
	// Position t predicts ids[t+1]; continuation tokens occupy the tail.
	first := len(ids) - len(cont)
	var lp float64
	for t := first - 1; t+1 < len(ids); t++ {
		lse := tensor.LogSumExp(logits[t])
		lp += float64(logits[t][ids[t+1]]) - lse
	}
	return lp / float64(len(cont))
}
