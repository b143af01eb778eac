package experiments

import (
	"math"
	"slices"

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
			return &sparsity.GLUPrune{RhoGLU: float64(3*d) - 2}
		}, 0.70},
		{"up", func(d float64) sparsity.Scheme {
			return &sparsity.UpPrune{Rho: rowRho(d)}
		}, 0.36},
		{"cats", func(d float64) sparsity.Scheme {
			return l.CATS(name, rowRho(d))
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

// frontier is the throughput frontier of one analog on each of its
// devices: the dense point and every family's points over its sweep
// densities.
type frontier struct {
	name  string
	devs  []hwsim.Device
	fams  []throughputFamily
	dense []eval.Point     // dense[k]: on devs[k]
	pts   [][][]eval.Point // pts[f][i][k]: fams[f] at its i-th sweep density on devs[k]
}

// evalFrontiers evaluates every frontier's dense point and family sweeps as
// one flat grid of cells, one per (analog, scheme) priced on each device
// under LFU, then hands the points back to each frontier in cell order.
func evalFrontiers(l *Lab, fs []frontier) error {
	var cells []sysCell
	lfu := []cache.Policy{cache.PolicyLFU}
	for _, f := range fs {
		cells = append(cells, sysCell{f.name, sparsity.Dense{}, f.devs, lfu})
		for _, fam := range f.fams {
			for _, d := range sweepDensities(l, fam.minDensity) {
				cells = append(cells, sysCell{f.name, fam.makeScheme(d), f.devs, lfu})
			}
		}
	}
	pts, err := runGrid(cells, l.point)
	if err != nil {
		return err
	}
	for i := range fs {
		f := &fs[i]
		f.dense, pts = pts[0], pts[1:]
		f.pts = make([][][]eval.Point, len(f.fams))
		for j, fam := range f.fams {
			n := len(sweepDensities(l, fam.minDensity))
			f.pts[j], pts = pts[:n], pts[n:]
		}
	}
	return nil
}

// best returns family j's highest-throughput point on devs[k] whose
// perplexity is within budget (in the paper's absolute units, see pplScale)
// of dense on that device.
func (f *frontier) best(j, k int, budget float64) (eval.Point, bool) {
	pts := make([]eval.Point, len(f.pts[j]))
	for i, p := range f.pts[j] {
		pts[i] = p[k]
	}
	dense := f.dense[k].PPL
	return eval.BestThroughput(pts, dense+float64(budget*pplScale(dense)))
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
	l.Warm(names...)
	fs := make([]frontier, len(names))
	for i, name := range names {
		fs[i] = frontier{name: name, devs: []hwsim.Device{dev}, fams: throughputFamilies(l, name)}
	}
	if err := evalFrontiers(l, fs); err != nil {
		return nil, err
	}
	for _, f := range fs {
		m := l.Model(f.name)
		plan, err := hwsim.NewPlan(m, dev, hwsim.PlanOpts{Groups: hwsim.ProbeGroups(sparsity.NewDIP(0.5), m)})
		if err != nil {
			return nil, err
		}
		sizes.AddRow(f.name, plan.ModelBytes/1e9, dev.DRAMFraction*plan.ModelBytes/1e9)
		dense := f.dense[0]
		out.AddRow(f.name, "dense", dense.Throughput, dense.Throughput, 1.0, dense.HitRate)
		for j, fam := range f.fams {
			row := []any{f.name, fam.label}
			if best, ok := f.best(j, 0, 0.2); ok {
				row = append(row, best.Throughput)
			} else {
				row = append(row, "-")
			}
			if best, ok := f.best(j, 0, 0.5); ok {
				row = append(row, best.Throughput, best.Density, best.HitRate)
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
		maxV := max(slices.Max(vals), 0)
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
	cells := make([]sysCell, len(gammas))
	for i, gamma := range gammas {
		cells[i] = sysCell{name, sparsity.NewDIPCA(0.5, gamma), []hwsim.Device{hwsim.A18Like()}, []cache.Policy{cache.PolicyLFU}}
	}
	pts, err := runGrid(cells, l.point)
	if err != nil {
		return nil, err
	}
	for i, gamma := range gammas {
		pt := pts[i][0]
		sweep.AddRow(gamma, pt.PPL, pt.Throughput, pt.HitRate)
	}
	sweep.Notes = append(sweep.Notes,
		"paper Figure 10 (right): γ ≈ 0.1–0.3 maximizes throughput at minor perplexity cost; γ=1 is plain DIP")
	return []*Table{dist, sweep}, nil
}

// Fig11 compares cache eviction policies against cache-aware masking on
// the throughput/perplexity plane.
func Fig11(l *Lab) ([]*Table, error) {
	name := model.Phi3MedSim
	out := &Table{
		ID:      "fig11",
		Title:   "Eviction policies vs cache-aware masking (DIP @ swept densities)",
		Columns: []string{"config", "density", "ppl", "tok_s", "hit_rate"},
	}
	dev, lfu := []hwsim.Device{hwsim.A18Like()}, []cache.Policy{cache.PolicyLFU}
	// One DIP cell per density is priced under every policy; DIP-CA reads
	// the cache, so its cells run coupled under LFU alone.
	labels := []string{"dip-nocache", "dip-lru", "dip-lfu", "dip-belady"}
	policies := []cache.Policy{cache.PolicyNone, cache.PolicyLRU, cache.PolicyLFU, cache.PolicyBelady}
	densities := sweepDensities(l, 0.25)
	cells := []sysCell{{name, sparsity.Dense{}, dev, lfu}}
	for _, d := range densities {
		cells = append(cells, sysCell{name, sparsity.NewDIP(d), dev, policies})
	}
	for _, d := range densities {
		cells = append(cells, sysCell{name, sparsity.NewDIPCA(d, 0.2), dev, lfu})
	}
	pts, err := runGrid(cells, l.point)
	if err != nil {
		return nil, err
	}
	add := func(label string, density float64, pt eval.Point) {
		out.AddRow(label, density, pt.PPL, pt.Throughput, pt.HitRate)
	}
	add("dense", 1.0, pts[0][0])
	for k, label := range labels {
		for i, d := range densities {
			add(label, d, pts[1+i][k])
		}
	}
	for i, d := range densities {
		add("dip-ca-lfu", d, pts[1+len(densities)+i][0])
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
	// The ablation tables track dense, GLU, Up, CATS, DIP-CA (paper).
	fams := slices.DeleteFunc(throughputFamilies(l, name), func(f throughputFamily) bool { return f.label == "dip" })
	fs := []frontier{{name: name, devs: devices, fams: fams}}
	if err := evalFrontiers(l, fs); err != nil {
		return nil, err
	}
	f := &fs[0]
	for k, dev := range devices {
		out.AddRow(dev.Name, "dense", f.dense[k].Throughput, f.dense[k].HitRate)
		for j, fam := range f.fams {
			if best, ok := f.best(j, k, 0.5); ok {
				out.AddRow(dev.Name, fam.label, best.Throughput, best.HitRate)
			} else {
				out.AddRow(dev.Name, fam.label, "-", "-")
			}
		}
	}
	return []*Table{out}, nil
}
