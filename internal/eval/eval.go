// Package eval is the measurement harness: it wires a sparsity scheme into
// a model's MLP hook — or into a Stream coupled to the DRAM cache simulator
// and transfer-cost meter — and reports the paper's three KPIs: model quality
// (perplexity, multiple-choice accuracy), memory (measured MLP density),
// and throughput (simulated tokens/second).
package eval

import (
	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// DensityAccumulator averages the measured MLP density over an evaluation.
type DensityAccumulator struct {
	sum      float64
	n        int
	dim, dff int
}

// NewDensityAccumulator sizes the accumulator for a model's MLP dims.
func NewDensityAccumulator(m *model.Model) *DensityAccumulator {
	return &DensityAccumulator{dim: m.Cfg.Dim, dff: m.Cfg.DFF}
}

// Reset empties the accumulator back to what NewDensityAccumulator built,
// keeping its MLP dims.
func (d *DensityAccumulator) Reset() { d.sum, d.n = 0, 0 }

// Add records one TokenAccess.
func (d *DensityAccumulator) Add(ta *sparsity.TokenAccess) {
	d.sum += ta.Density(d.dim, d.dff)
	d.n++
}

// Mean returns the average density, or 0 before any access.
func (d *DensityAccumulator) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Hook builds a model.MLPHook evaluating the scheme, adding each access to
// density when it is non-nil. A hook passes no CacheView, so it scores plain
// masks; a cache-coupled evaluation of a token stream is a Stream.
func Hook(m *model.Model, s sparsity.Scheme, density *DensityAccumulator) model.MLPHook {
	var dense sparsity.DenseScratch
	return func(layer int, x tensor.Vec) tensor.Vec {
		y, ta := sparsity.ForwardColumn(layer, s, x, m.Blocks[layer].MLP, nil, &dense)
		if density != nil {
			density.Add(&ta)
		}
		return y
	}
}

// PerplexityUnderScheme evaluates windowed perplexity with the scheme and
// no hardware coupling, returning the perplexity and mean measured density.
func PerplexityUnderScheme(m *model.Model, s sparsity.Scheme, tokens []int, win int) (ppl, density float64) {
	acc := NewDensityAccumulator(m)
	hook := Hook(m, s, acc)
	return model.Perplexity(m, tokens, win, hook), acc.Mean()
}

// MCAccuracy scores multiple-choice items under the scheme (no cache
// coupling — quality metrics in the paper's Tables 1/3/4/5 use plain
// masks) and returns the accuracy in percent. Items are independent, so
// they fan out across the worker pool; each block of items steps its own
// decoder over its own clone of the scheme, so per-call scratch is never
// shared, and per-item verdicts are reduced in item order — results match
// a serial run exactly.
func MCAccuracy(m *model.Model, s sparsity.Scheme, tok *data.Tokenizer, items []data.MCItem) float64 {
	if len(items) == 0 {
		return 0
	}
	got := make([]bool, len(items))
	parallel.For(len(items), 1, func(lo, hi int) {
		var hook model.MLPHook
		if s != nil {
			hook = Hook(m, sparsity.Clone(s), nil)
		}
		dec := m.NewDecoder(hook)
		for i := lo; i < hi; i++ {
			it := items[i]
			conts := make([][]int, len(it.Choices))
			for c, choice := range it.Choices {
				conts[c] = tok.Encode(choice)
			}
			lps := make([]float64, len(conts))
			model.ChoiceLogProbs(dec, tok.Encode(it.Prompt), conts, lps)
			best := 0
			for c, lp := range lps {
				if lp > lps[best] {
					best = c
				}
			}
			got[i] = best == it.Answer
		}
	})
	correct := 0
	for _, ok := range got {
		if ok {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(items))
}

// Point is one operating point of the three-way KPI trade-off.
type Point struct {
	Scheme     string
	Density    float64 // measured mean MLP density
	PPL        float64
	Throughput float64 // simulated tok/s
	HitRate    float64
	LatencyS   float64
}

// SystemConfig drives a coupled quality+throughput evaluation.
type SystemConfig struct {
	Device hwsim.Device
	Policy cache.Policy
	// BytesPerWeight defaults to 0.5 (INT4, the Table 2 setting).
	BytesPerWeight float64
	// MaxTokens truncates the token stream (0 = use all).
	MaxTokens int
	// Win is the evaluation window length (defaults to model MaxSeq).
	Win int
}

// SystemEvaluate runs the scheme over the token stream with the cache and
// meter coupled, returning perplexity, measured density, hit rate, and
// simulated throughput. It is a Stream run to completion — the serving
// engine advances the identical per-token machinery, so a session evaluated
// alone reproduces this function bit for bit. Under the Belady policy it is
// Record followed by Replay: the oracle's future is the recorded trace, so
// cache-aware schemes, whose accesses depend on the cache, are rejected.
func SystemEvaluate(m *model.Model, s sparsity.Scheme, tokens []int, cfg SystemConfig) (Point, error) {
	if cfg.Policy == cache.PolicyBelady {
		plan, err := systemPlan(m, s, cfg)
		if err != nil {
			return Point{}, err
		}
		tr, err := Record(m, s, tokens, cfg)
		if err != nil {
			return Point{}, err
		}
		return Replay(tr, plan, cfg.Policy).Point(), nil
	}
	st, err := NewStream(m, s, tokens, cfg)
	if err != nil {
		return Point{}, err
	}
	for st.Step() {
	}
	return st.Point(), nil
}

// BestThroughput returns the highest-throughput point whose perplexity is
// at most maxPPL, and whether any point qualified.
func BestThroughput(points []Point, maxPPL float64) (Point, bool) {
	var best Point
	found := false
	for _, p := range points {
		if p.PPL <= maxPPL && (!found || p.Throughput > best.Throughput) {
			best = p
			found = true
		}
	}
	return best, found
}
