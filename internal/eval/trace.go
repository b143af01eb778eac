package eval

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/sparsity"
)

// Trace is one decode of a token stream under a scheme whose masks do not
// read the cache: every token's per-layer accesses in decode order, with the
// cross-entropy sums and density that pass measured. None of it depends on
// the memory system, so Replay prices one Trace on any number of them.
type Trace struct {
	st  Stream                 // the drained recording stream, detached from its decoder
	acc []sparsity.TokenAccess // acc[t*layers+l]: token t's accesses at layer l
}

// Record decodes tokens once under s with no cache attached, as
// SystemEvaluate(m, s, tokens, cfg) would decode them, and keeps each
// token's accesses. cfg's device and policy are not used; the memory system
// is Replay's argument. A cache-aware scheme (DIP-CA) is rejected: its masks
// read the cache, so its accesses depend on the memory system.
func Record(m *model.Model, s sparsity.Scheme, tokens []int, cfg SystemConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sparsity.ReadsCache(s) {
		return nil, fmt.Errorf("eval: %s reads the cache, so its accesses cannot be recorded once for every memory system", s.Name())
	}
	tokens, win := evalWindow(m, tokens, cfg)
	layers := len(m.Blocks)
	tr := &Trace{acc: make([]sparsity.TokenAccess, len(tokens)*layers)}
	st := tr.st.couple(m, s, tokens, win, nil, nil)
	for t := range tokens {
		st.pending = tr.acc[t*layers : (t+1)*layers] // Decode copies units into the trace's own slots
		st.Decode()
		st.dirty = false
	}
	st.hook, st.dec, st.pending = nil, nil, nil
	return tr, nil
}

// Replay prices the recorded stream on a fresh cache of plan under policy,
// a Belady cache taking its future from the trace, and returns the drained
// stream. It commits each recorded token as a coupled Step does, a
// one-column step of its own, so Point, CE and Traffic equal the coupled
// stream's bit for bit. The returned stream cannot be stepped or restarted.
func Replay(tr *Trace, plan *hwsim.Plan, policy cache.Policy) *Stream {
	st := tr.st
	acc := *tr.st.acc
	st.acc, st.step, st.mc, st.meter = &acc, plan.NewStep(), plan.NewCache(policy), *plan.NewMeter()
	if policy == cache.PolicyBelady {
		st.mc.SetFuture(tr.units)
	}
	layers := len(st.m.Blocks)
	for t := 0; t < len(tr.acc); t += layers {
		st.commit(tr.acc[t : t+layers])
	}
	return &st
}

// units returns the recorded access stream of group g at layer l, one entry
// per access in token order: the unit list of a sparse access, nil for a
// dense one. Tokens that leave the group unused are not accesses and get no
// entry. The lists alias the trace.
func (tr *Trace) units(l int, g sparsity.GroupID) [][]int {
	layers := len(tr.st.m.Blocks)
	var out [][]int
	for t := l; t < len(tr.acc); t += layers {
		switch a := tr.acc[t].Groups[g]; a.Kind {
		case sparsity.AccessSparse:
			out = append(out, a.Units)
		case sparsity.AccessDense:
			out = append(out, nil)
		}
	}
	return out
}

// LayerWeights derives per-layer cache allocation weights from the trace for
// hwsim.Plan.ApplyLayerWeights: each layer's weight is its total sparse-unit
// traffic, so layers whose masks churn more get more cache. Dense accesses
// are excluded (pinning handles them). The result is normalized to mean 1,
// and uniform when nothing was accessed sparsely.
func (tr *Trace) LayerWeights() []float64 {
	layers := len(tr.st.m.Blocks)
	w, total := make([]float64, layers), 0.0
	for t := range tr.acc {
		for _, a := range tr.acc[t].Groups {
			if a.Kind == sparsity.AccessSparse {
				w[t%layers] += float64(len(a.Units))
				total += float64(len(a.Units)) // unit counts: exact in any order
			}
		}
	}
	for l := range w {
		if total == 0 {
			w[l] = 1
		} else {
			w[l] *= float64(layers) / total
		}
	}
	return w
}
