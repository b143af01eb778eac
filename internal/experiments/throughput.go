package experiments

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// throughputFamily is one method whose density can be swept for operating
// points. makeScheme returns the scheme at a target MLP density.
type throughputFamily struct {
	label      string
	makeScheme func(density float64) sparsity.Scheme
	// minDensity is the lowest admissible target (GLU pruning can't go
	// below 2/3, Gate/Up below 1/3).
	minDensity float64
}

func throughputFamilies(l *Lab, name string) []throughputFamily {
	return []throughputFamily{
		{"glu", func(d float64) sparsity.Scheme {
			return &sparsity.GLUPrune{RhoGLU: 3*d - 2}
		}, 0.70},
		{"up", func(d float64) sparsity.Scheme {
			return &sparsity.UpPrune{Rho: (3*d - 1) / 2}
		}, 0.36},
		{"cats", func(d float64) sparsity.Scheme {
			return l.CATS(name, (3*d-1)/2)
		}, 0.36},
		{"dip", func(d float64) sparsity.Scheme {
			return sparsity.NewDIP(d)
		}, 0.25},
		{"dip-ca", func(d float64) sparsity.Scheme {
			return sparsity.NewDIPCA(d, 0.2)
		}, 0.25},
	}
}

func sweepDensities(l *Lab, minD float64) []float64 {
	all := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if l.Scale == model.ScaleTest {
		all = []float64{0.4, 0.6, 0.8}
	}
	var out []float64
	for _, d := range all {
		if d >= minD {
			out = append(out, d)
		}
	}
	return out
}

// evalTokens bounds the coupled-evaluation stream per scale.
func (l *Lab) evalTokens() int {
	if l.Scale == model.ScalePaper {
		return 4096
	}
	return 768
}

// operatingPoints sweeps one family's densities under a device/policy.
// Each density is an independent coupled evaluation (own cache, own meter,
// own scheme clone), so the sweep fans out over the worker pool.
func operatingPoints(l *Lab, name string, fam throughputFamily, dev hwsim.Device, policy cache.Policy) ([]eval.Point, error) {
	m := l.Model(name)
	test := l.TestTokens(0)
	densities := sweepDensities(l, fam.minDensity)
	pts := make([]eval.Point, len(densities))
	err := forEach(len(densities), func(i int) error {
		d := densities[i]
		// Clone: makeScheme may hand back a lab-memoized scheme (CATS)
		// whose scratch must not be shared across concurrent evaluations.
		s := sparsity.Clone(fam.makeScheme(d))
		pt, err := eval.SystemEvaluate(m, s, test, eval.SystemConfig{
			Device: dev, Policy: policy, MaxTokens: l.evalTokens(), Win: l.EvalWin(),
		})
		if err != nil {
			return fmt.Errorf("%s @%.2f: %w", fam.label, d, err)
		}
		pts[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// densePoint evaluates the dense baseline under the device.
func densePoint(l *Lab, name string, dev hwsim.Device) (eval.Point, error) {
	m := l.Model(name)
	return eval.SystemEvaluate(m, sparsity.Dense{}, l.TestTokens(0), eval.SystemConfig{
		Device: dev, Policy: cache.PolicyLFU, MaxTokens: l.evalTokens(), Win: l.EvalWin(),
	})
}

// Table2 reproduces the throughput comparison: best tok/s under +0.2 and
// +0.5 perplexity budgets with DRAM fitting ~50% of each 4-bit model.
func Table2(l *Lab) ([]*Table, error) {
	sizes := &Table{
		ID:      "tab2-sizes",
		Title:   "Model and DRAM sizes (paper-scale bytes)",
		Columns: []string{"model", "model_gb", "dram_gb"},
	}
	out := &Table{
		ID:      "tab2",
		Title:   "Throughput at +0.2 / +0.5 perplexity budgets (LFU cache, INT4, DRAM ≈ 50% model)",
		Columns: []string{"model", "method", "tok_s_@+0.2ppl", "tok_s_@+0.5ppl", "density_@+0.5", "hit_rate_@+0.5"},
	}
	dev := hwsim.A18Like()
	names := model.AnalogNames()
	if l.Scale == model.ScaleTest {
		names = names[:2]
		out.Notes = append(out.Notes, "test scale: first two analogs only")
	}
	// Warm the analogs concurrently, then fan out the whole (name × method)
	// grid — each cell is an independent coupled evaluation. Rows are
	// assembled from the indexed results afterwards, preserving the serial
	// table order exactly.
	l.Warm(names...)
	type nameRes struct {
		modelBytes float64
		dense      eval.Point
		fams       []throughputFamily
		pts        [][]eval.Point
	}
	results := make([]nameRes, len(names))
	err := forEach(len(names), func(ni int) error {
		name := names[ni]
		m := l.Model(name)
		plan, err := hwsim.NewPlan(m, dev, hwsim.PlanOpts{Groups: hwsim.ProbeGroups(sparsity.NewDIP(0.5), m)})
		if err != nil {
			return err
		}
		r := &results[ni]
		r.modelBytes = plan.ModelBytes
		r.fams = throughputFamilies(l, name)
		r.pts = make([][]eval.Point, len(r.fams))
		return forEach(1+len(r.fams), func(i int) error {
			if i == 0 {
				dense, err := densePoint(l, name, dev)
				if err != nil {
					return err
				}
				r.dense = dense
				return nil
			}
			pts, err := operatingPoints(l, name, r.fams[i-1], dev, cache.PolicyLFU)
			if err != nil {
				return err
			}
			r.pts[i-1] = pts
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		r := &results[ni]
		sizes.AddRow(name, r.modelBytes/1e9, dev.DRAMFraction*r.modelBytes/1e9)
		dense := r.dense
		out.AddRow(name, "dense", dense.Throughput, dense.Throughput, 1.0, dense.HitRate)
		for fi, fam := range r.fams {
			pts := r.pts[fi]
			row := []any{name, fam.label}
			best02, ok02 := eval.BestThroughput(pts, dense.PPL+0.2*pplScale(dense.PPL))
			best05, ok05 := eval.BestThroughput(pts, dense.PPL+0.5*pplScale(dense.PPL))
			if ok02 {
				row = append(row, best02.Throughput)
			} else {
				row = append(row, "-")
			}
			if ok05 {
				row = append(row, best05.Throughput, best05.Density, best05.HitRate)
			} else {
				row = append(row, "-", "-", "-")
			}
			out.AddRow(row...)
		}
	}
	out.Notes = append(out.Notes,
		"perplexity budgets scale with the dense perplexity (the paper's absolute +0.2/+0.5 assume ppl ≈ 4-6)")
	return []*Table{sizes, out}, nil
}

// pplScale normalizes the paper's absolute perplexity budgets (defined for
// models with dense ppl ≈ 4-6) to the analog's dense perplexity.
func pplScale(densePPL float64) float64 {
	return math.Max(1, densePPL/5)
}

// Fig10 reports (left) the per-layer normalized |GLU| quantiles that
// motivate cache-aware re-weighting and (right) the γ sweep of throughput
// and perplexity.
func Fig10(l *Lab) ([]*Table, error) {
	name := model.Phi3MedSim
	m := l.Model(name)
	st := sparsity.CollectStats(m, l.CalibTokens(), l.EvalWin(), 192)
	dist := &Table{
		ID:      "fig10-dist",
		Title:   "Normalized |GLU| quantiles per layer (heavy head, flat middle)",
		Columns: []string{"layer", "p30", "p50", "p80", "p99", "max"},
	}
	for layer, vals := range st.AbsGLU {
		maxV := float32(0)
		for _, v := range vals {
			if v > maxV {
				maxV = v
			}
		}
		if maxV == 0 {
			maxV = 1
		}
		q := func(p float64) float64 { return float64(tensor.Quantile(vals, p) / maxV) }
		dist.AddRow(layer, q(0.30), q(0.50), q(0.80), q(0.99), 1.0)
	}
	dist.Notes = append(dist.Notes,
		"activations between the 30th and 80th percentile sit within one order of magnitude — re-ranking them is cheap (Section 6.4)")

	sweep := &Table{
		ID:      "fig10",
		Title:   "Effect of the DIP-CA γ penalty at 50% density (LFU cache)",
		Columns: []string{"gamma", "ppl", "tok_s", "hit_rate"},
	}
	gammas := []float64{1e-5, 1e-3, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0}
	if l.Scale == model.ScaleTest {
		gammas = []float64{1e-3, 0.2, 1.0}
	}
	test := l.TestTokens(0)
	gpts := make([]eval.Point, len(gammas))
	err := forEach(len(gammas), func(i int) error {
		pt, err := eval.SystemEvaluate(m, sparsity.NewDIPCA(0.5, gammas[i]), test, eval.SystemConfig{
			Device: hwsim.A18Like(), Policy: cache.PolicyLFU, MaxTokens: l.evalTokens(), Win: l.EvalWin(),
		})
		if err != nil {
			return err
		}
		gpts[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, g := range gammas {
		sweep.AddRow(g, gpts[i].PPL, gpts[i].Throughput, gpts[i].HitRate)
	}
	sweep.Notes = append(sweep.Notes,
		"paper Figure 10 (right): γ ≈ 0.1–0.3 maximizes throughput at minor perplexity cost; γ=1 is plain DIP")
	return []*Table{dist, sweep}, nil
}

// Fig11 compares cache eviction policies against cache-aware masking on
// the throughput/perplexity plane.
func Fig11(l *Lab) ([]*Table, error) {
	name := model.Phi3MedSim
	m := l.Model(name)
	out := &Table{
		ID:      "fig11",
		Title:   "Eviction policies vs cache-aware masking (DIP @ swept densities)",
		Columns: []string{"config", "density", "ppl", "tok_s", "hit_rate"},
	}
	test := l.TestTokens(0)
	dense, err := densePoint(l, name, hwsim.A18Like())
	if err != nil {
		return nil, err
	}
	out.AddRow("dense", 1.0, dense.PPL, dense.Throughput, dense.HitRate)
	configs := []struct {
		label  string
		policy cache.Policy
		ca     bool
	}{
		{"dip-nocache", cache.PolicyNone, false},
		{"dip-lru", cache.PolicyLRU, false},
		{"dip-lfu", cache.PolicyLFU, false},
		{"dip-belady", cache.PolicyBelady, false},
		{"dip-ca-lfu", cache.PolicyLFU, true},
	}
	densities := sweepDensities(l, 0.25)
	grid := make([]eval.Point, len(configs)*len(densities))
	err = forEach(len(grid), func(i int) error {
		cfg := configs[i/len(densities)]
		d := densities[i%len(densities)]
		var s sparsity.Scheme
		if cfg.ca {
			s = sparsity.NewDIPCA(d, 0.2)
		} else {
			s = sparsity.NewDIP(d)
		}
		pt, err := eval.SystemEvaluate(m, s, test, eval.SystemConfig{
			Device: hwsim.A18Like(), Policy: cfg.policy, MaxTokens: l.evalTokens(), Win: l.EvalWin(),
		})
		if err != nil {
			return err
		}
		grid[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range grid {
		out.AddRow(configs[i/len(densities)].label, densities[i%len(densities)], pt.PPL, pt.Throughput, pt.HitRate)
	}
	out.Notes = append(out.Notes,
		"paper Figure 11: LFU ≈ LRU ≲ Belady, all well below DIP-CA at equal perplexity")
	return []*Table{out}, nil
}

// Table6 ablates DRAM size (the paper's 2/4/6 GB cases map to DRAM
// fractions of the model footprint).
func Table6(l *Lab) ([]*Table, error) {
	return deviceAblation(l, "tab6", "DRAM size ablation (Phi-3-Medium analog, +0.5 ppl budget)",
		[]hwsim.Device{
			{Name: "dram-2gb", DRAMBandwidth: 60e9, FlashBandwidth: 1e9, DRAMFraction: 0.27},
			{Name: "dram-4gb", DRAMBandwidth: 60e9, FlashBandwidth: 1e9, DRAMFraction: 0.54},
			{Name: "dram-6gb", DRAMBandwidth: 60e9, FlashBandwidth: 1e9, DRAMFraction: 0.81},
		})
}

// Table7 ablates Flash read speed.
func Table7(l *Lab) ([]*Table, error) {
	return deviceAblation(l, "tab7", "Flash read speed ablation (Phi-3-Medium analog, +0.5 ppl budget)",
		[]hwsim.Device{
			{Name: "flash-0.5GBs", DRAMBandwidth: 60e9, FlashBandwidth: 0.5e9, DRAMFraction: 0.5},
			{Name: "flash-1GBs", DRAMBandwidth: 60e9, FlashBandwidth: 1e9, DRAMFraction: 0.5},
			{Name: "flash-2GBs", DRAMBandwidth: 60e9, FlashBandwidth: 2e9, DRAMFraction: 0.5},
		})
}

func deviceAblation(l *Lab, id, title string, devices []hwsim.Device) ([]*Table, error) {
	name := model.Phi3MedSim
	out := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"device", "method", "tok_s_@+0.5ppl", "hit_rate"},
	}
	allFams := throughputFamilies(l, name)
	// The ablation tables track dense, GLU, Up, CATS, DIP-CA (paper).
	keep := map[string]bool{"glu": true, "up": true, "cats": true, "dip-ca": true}
	var fams []throughputFamily
	for _, fam := range allFams {
		if keep[fam.label] {
			fams = append(fams, fam)
		}
	}
	// The full (device × method) grid fans out: every cell owns its cache
	// and meter, and rows are emitted in index order afterwards.
	type cellRes struct {
		dense eval.Point
		pts   []eval.Point
	}
	cols := 1 + len(fams)
	grid := make([]cellRes, len(devices)*cols)
	err := forEach(len(grid), func(i int) error {
		dev := devices[i/cols]
		mi := i % cols
		if mi == 0 {
			dense, err := densePoint(l, name, dev)
			if err != nil {
				return err
			}
			grid[i].dense = dense
			return nil
		}
		pts, err := operatingPoints(l, name, fams[mi-1], dev, cache.PolicyLFU)
		if err != nil {
			return err
		}
		grid[i].pts = pts
		return nil
	})
	if err != nil {
		return nil, err
	}
	for di, dev := range devices {
		dense := grid[di*cols].dense
		out.AddRow(dev.Name, "dense", dense.Throughput, dense.HitRate)
		for fi, fam := range fams {
			pts := grid[di*cols+1+fi].pts
			best, ok := eval.BestThroughput(pts, dense.PPL+0.5*pplScale(dense.PPL))
			if !ok {
				out.AddRow(dev.Name, fam.label, "-", "-")
				continue
			}
			out.AddRow(dev.Name, fam.label, best.Throughput, best.HitRate)
		}
	}
	return []*Table{out}, nil
}
