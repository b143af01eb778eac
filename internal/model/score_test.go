package model

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// pruneHook returns a hook that zeroes the MLP inputs below 0.5 in
// magnitude before the dense MLP, a stateless mask whose output does not
// depend on call order, and counts its calls and the inputs it keeps: the
// state a density accumulator carries.
func pruneHook(m *Model, calls, kept *int) MLPHook {
	return func(layer int, x tensor.Vec) tensor.Vec {
		*calls++
		in := x.Clone()
		for i, v := range in {
			if math.Abs(float64(v)) < 0.5 {
				in[i] = 0
			} else {
				*kept++
			}
		}
		return m.Blocks[layer].MLP.Apply(in)
	}
}

func randTokens(rng *tensor.RNG, n, vocab int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(vocab)
	}
	return ids
}

// Perplexity and ChoiceLogProbs step a Decoder; refPerplexity and
// refContinuationLogProb read the whole-window refForward. They agree in
// float64 bits, with and without a hook, at one worker and at two, and a
// hook sees every token of every window under both.
func TestScoringMatchesRefForward(t *testing.T) {
	defer parallel.SetProcs(parallel.Procs())
	m := New(tinyConfig(), 31)
	maxSeq, vocab := m.Cfg.MaxSeq, m.Cfg.Vocab
	rng := tensor.NewRNG(3)
	toks := randTokens(rng, 100, vocab)
	for _, procs := range []int{1, 2} {
		parallel.SetProcs(procs)
		for _, win := range []int{0, 1, 5, 7, maxSeq, maxSeq + 8} {
			for _, hooked := range []bool{false, true} {
				name := fmt.Sprintf("procs %d: Perplexity win %d hooked %v", procs, win, hooked)
				var hook, ref MLPHook
				var calls, kept, refCalls, refKept int
				if hooked {
					hook, ref = pruneHook(m, &calls, &kept), pruneHook(m, &refCalls, &refKept)
				}
				got := Perplexity(m, toks, win, hook)
				want := refPerplexity(m, toks, m.Window(win), ref)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s = %v, refPerplexity %v", name, got, want)
				}
				if calls != refCalls || kept != refKept {
					t.Errorf("%s: hook saw %d calls keeping %d inputs, ref %d keeping %d", name, calls, kept, refCalls, refKept)
				}
			}
		}
	}
	prompt := randTokens(rng, maxSeq+8, vocab)
	cont := randTokens(rng, maxSeq-1, vocab)
	for _, c := range []struct {
		name   string
		prompt []int
		conts  [][]int
	}{
		{"four choices of different lengths", prompt[:6], [][]int{cont[:3], cont[:1], cont[3:8], cont[:2]}},
		{"an empty continuation", prompt[:5], [][]int{nil, cont[:2], {}}},
		{"trimmed and untrimmed choices", prompt[:28], [][]int{cont[:4], cont[:6], cont[4:5], cont[:5], cont}},
		{"a prompt beyond MaxSeq", prompt, [][]int{cont[:2], nil, cont}},
		{"one-token prompt", prompt[:1], [][]int{cont[:1], cont}},
	} {
		for _, hooked := range []bool{false, true} {
			var hook, ref MLPHook
			var n int
			if hooked {
				hook, ref = pruneHook(m, &n, &n), pruneHook(m, &n, &n)
			}
			dec := m.NewDecoder(hook)
			dec.Step(1) // a used decoder: ChoiceLogProbs starts from its own Reset
			out := make([]float64, len(c.conts))
			ChoiceLogProbs(dec, c.prompt, c.conts, out)
			for i, cont := range c.conts {
				want := refContinuationLogProb(m, c.prompt, cont, ref)
				if math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Errorf("ChoiceLogProbs, %s, hooked %v: choice %d = %v, refContinuationLogProb %v", c.name, hooked, i, out[i], want)
				}
			}
		}
	}
}

// A non-empty continuation with no context token before it (an empty
// prompt, or a continuation of MaxSeq tokens that the trim leaves alone in
// the window) panics with a message that names the rule.
func TestChoiceLogProbsNeedsAContextToken(t *testing.T) {
	m := New(tinyConfig(), 29)
	long := make([]int, m.Cfg.MaxSeq)
	for _, c := range []struct {
		name         string
		prompt, cont []int
	}{
		{"empty prompt", nil, []int{4, 5}},
		{"continuation of MaxSeq tokens", []int{1, 2, 3}, long},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "ChoiceLogProbs needs a context token before each continuation") {
					t.Errorf("%s: panic %q", c.name, msg)
				}
			}()
			ChoiceLogProbs(m.NewDecoder(nil), c.prompt, [][]int{{4}, c.cont}, make([]float64, 2))
		}()
	}
	out := []float64{7}
	ChoiceLogProbs(m.NewDecoder(nil), nil, [][]int{nil}, out)
	if out[0] != 0 {
		t.Fatalf("empty continuation after an empty prompt scores %v, want 0", out[0])
	}
}

// FuzzChoiceLogProbs holds ChoiceLogProbs to refContinuationLogProb, float64
// bit for bit, on generated prompts (some beyond MaxSeq, so trimmed) and up
// to four choices of any length below MaxSeq, with and without a hook.
func FuzzChoiceLogProbs(f *testing.F) {
	f.Add(uint64(1), []byte{6, 3, 1, 5, 2}, false)
	f.Add(uint64(2), []byte{28, 4, 0, 31, 1}, true)
	f.Add(uint64(3), []byte{39, 2, 0}, false)
	f.Add(uint64(4), []byte{0, 1}, true)
	m := New(tinyConfig(), 37)
	maxSeq, vocab := m.Cfg.MaxSeq, m.Cfg.Vocab
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte, hooked bool) {
		if len(shape) == 0 {
			return
		}
		rng := tensor.NewRNG(seed)
		prompt := randTokens(rng, 1+int(shape[0])%(maxSeq+8), vocab)
		var conts [][]int
		for _, b := range shape[1:min(len(shape), 5)] {
			conts = append(conts, randTokens(rng, int(b)%maxSeq, vocab))
		}
		var hook, ref MLPHook
		var n int
		if hooked {
			hook, ref = pruneHook(m, &n, &n), pruneHook(m, &n, &n)
		}
		out := make([]float64, len(conts))
		ChoiceLogProbs(m.NewDecoder(hook), prompt, conts, out)
		for i, cont := range conts {
			want := refContinuationLogProb(m, prompt, cont, ref)
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("prompt %v: choice %d %v = %v, refContinuationLogProb %v", prompt, i, cont, out[i], want)
			}
		}
	})
}
