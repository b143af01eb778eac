package experiments

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/prune"
	"repro/internal/sparsity"
)

// runGrid evaluates every cell on the worker pool and returns the results
// in cell order, or the first error by cell index. Each cell is an
// independent deterministic computation writing its own slot, so drivers
// emit rows from the results afterwards and a parallel run renders the same
// tables as a serial one.
func runGrid[C, R any](cells []C, fn func(C) (R, error)) ([]R, error) {
	out := make([]R, len(cells))
	errs := make([]error, len(cells))
	parallel.For(len(cells), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], errs[i] = fn(cells[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// keyedCells is a cell list together with each cell's leading row values,
// so a driver emits row i as keys[i] followed by result i's columns.
type keyedCells[C any] struct {
	cells []C
	keys  [][]any
}

func (g *keyedCells[C]) add(c C, key ...any) {
	g.cells = append(g.cells, c)
	g.keys = append(g.keys, key)
}

// row returns cell i's keys followed by vals.
func (g *keyedCells[C]) row(i int, vals ...any) []any {
	return append(slices.Clip(g.keys[i]), vals...)
}

// sysCell is one scheme on an analog, priced on every (device, policy)
// system, device-major.
type sysCell struct {
	name     string
	scheme   sparsity.Scheme
	devs     []hwsim.Device
	policies []cache.Policy
}

// point evaluates the cell on each system over the scale's test tokens: one
// eval.Record, then one eval.Replay per system, or for DIP-CA, whose masks
// read the cache, one coupled eval.SystemEvaluate per system. Each decode
// runs a clone: a lab-memoized scheme (CATS) has scratch cells must not share.
func (l *Lab) point(c sysCell) ([]eval.Point, error) {
	m, s := l.Model(c.name), sparsity.Clone(c.scheme)
	groups := hwsim.ProbeGroups(s, m)
	cfg := eval.SystemConfig{Device: c.devs[0], Policy: c.policies[0], MaxTokens: l.evalTokens(), Win: l.EvalWin()}
	var tr *eval.Trace
	if !sparsity.ReadsCache(s) {
		var err error
		if tr, err = eval.Record(m, s, l.TestTokens(0), cfg); err != nil {
			return nil, err
		}
	}
	var pts []eval.Point
	for _, dev := range c.devs {
		for _, policy := range c.policies {
			cfg.Device, cfg.Policy = dev, policy
			if tr == nil {
				pt, err := eval.SystemEvaluate(m, sparsity.Clone(c.scheme), l.TestTokens(0), cfg)
				if err != nil {
					return nil, err
				}
				pts = append(pts, pt)
				continue
			}
			plan, err := hwsim.NewPlan(m, cfg.Device, hwsim.PlanOpts{Groups: groups})
			if err != nil {
				return nil, err
			}
			pts = append(pts, eval.Replay(tr, plan, cfg.Policy).Point())
		}
	}
	return pts, nil
}

// qualCell is one quality evaluation: a model masked by a scheme (nil for a
// dense or statically pruned model), scored on the test tokens and, when
// items are given, on a multiple-choice battery.
type qualCell struct {
	label  string
	m      *model.Model
	scheme sparsity.Scheme
	items  []data.MCItem
}

// qual is a quality cell's result: perplexity, multiple-choice accuracy in
// percent, and the MLP density the model ran at.
type qual struct{ ppl, acc, density float64 }

// quality scores the cell. A nil scheme runs the model as it is, at the
// static density of its zeroed MLP weights; any other scheme runs on its
// own clone, so cells may share a lab-memoized scheme.
func (l *Lab) quality(c qualCell) (qual, error) {
	s := sparsity.Clone(c.scheme)
	var q qual
	if s == nil {
		q.ppl = model.Perplexity(c.m, l.TestTokens(0), l.EvalWin(), nil)
		q.density = 1 - prune.MLPSparsity(c.m)
	} else {
		q.ppl, q.density = eval.PerplexityUnderScheme(c.m, s, l.TestTokens(0), l.EvalWin())
	}
	if c.items != nil {
		q.acc = eval.MCAccuracy(c.m, s, l.Tokenizer(), c.items)
	}
	return q, nil
}

// rowRho is the intermediate-axis keep rate of Gate/Up/CATS at an MLP
// density: density = (1 + 2ρ)/3, so ρ = (3·density − 1)/2, floored at 0.02.
// The conversion keeps arm64 from fusing the product into the subtraction.
func rowRho(density float64) float64 {
	return max((float64(3*density)-1)/2, 0.02)
}
