package experiments

import (
	"fmt"

	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/sparsity"
)

// memoryMB computes the paper-scale DRAM footprint of the Phi-3-Medium
// analog: pinned static share plus the MLP bytes at the method's effective
// bits/weight, scaled by the dynamic density for +DIP points.
func memoryMB(m *model.Model, bytesPerWeight, density float64) float64 {
	paper := hwsim.PaperModelBytes[m.Cfg.Name]
	const staticFraction = 0.15
	// Paper footprints assume INT4 (0.5 B/w); rescale the MLP share.
	mlpBytes := (1 - staticFraction) * paper * (bytesPerWeight / 0.5) * density
	return (staticFraction*paper + mlpBytes) / 1e6
}

// Fig9 compares and combines DIP with quantization and static pruning on
// the memory/perplexity plane (paper Figure 9).
func Fig9(l *Lab) ([]*Table, error) {
	name := model.Phi3MedSim
	m := l.Model(name)
	win := l.EvalWin()
	calib := l.CalibTokens()
	out := &Table{
		ID:      "fig9",
		Title:   "DIP vs and with quantization / static pruning (memory-perplexity plane)",
		Columns: []string{"config", "memory_mb", "ppl"},
	}
	bqBits := []int{2, 3, 4}
	if l.Scale == model.ScaleTest {
		bqBits = []int{2, 4}
	}
	vqBits := []int{2, 3}
	if l.Scale == model.ScaleTest {
		vqBits = []int{3}
	}
	// A static configuration is a model built once, stored at bpw bytes
	// per weight with its MLP bytes scaled by density. The builds are
	// independent, so they fan out first.
	type static struct {
		label        string
		bpw, density float64
		build        func() (*model.Model, error)
	}
	statics := []static{{"dense-fp16", 2.0, 1, func() (*model.Model, error) { return m, nil }}}
	for _, bits := range bqBits {
		statics = append(statics, static{fmt.Sprintf("bq%d", bits), quant.BQBytesPerWeight(bits), 1,
			func() (*model.Model, error) { return quant.BQModel(m, calib, win, bits) }})
	}
	for _, bits := range vqBits {
		statics = append(statics, static{fmt.Sprintf("vq%d", bits), quant.VQBytesPerWeight(bits), 1,
			func() (*model.Model, error) { return quant.VQModel(m, bits), nil }})
	}
	// SparseGPT at 4-bit storage with the 1-bit mask overhead.
	statics = append(statics, static{"sparsegpt-50%+bq4", 0.5 + prune.MaskOverheadBits/8, 0.5,
		func() (*model.Model, error) { return l.SparseGPT(name, prune.Unstructured, 0.5), nil }})
	models, err := runGrid(statics, func(s static) (*model.Model, error) {
		qm, err := s.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.label, err)
		}
		return qm, nil
	})
	if err != nil {
		return nil, err
	}
	// One grid scores every static model, then the BQ4+DIP and VQ3+DIP
	// density sweeps (dynamic sparsity on top of a quantized model), whose
	// memory scales by the measured density instead.
	type fig9Cell struct {
		qualCell
		bpw, density float64
	}
	var cells []fig9Cell
	for i, s := range statics {
		cells = append(cells, fig9Cell{qualCell{s.label, models[i], nil, nil}, s.bpw, s.density})
	}
	densities := []float64{0.4, 0.5, 0.65, 0.8}
	if l.Scale == model.ScaleTest {
		densities = []float64{0.5, 0.8}
	}
	for i, s := range statics {
		if s.label == "bq4" || s.label == "vq3" {
			for _, d := range densities {
				cells = append(cells, fig9Cell{qualCell{fmt.Sprintf("%s+dip@%.2f", s.label, d), models[i], sparsity.NewDIP(d), nil}, s.bpw, 0})
			}
		}
	}
	res, err := runGrid(cells, func(c fig9Cell) (qual, error) { return l.quality(c.qualCell) })
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		density := c.density
		if c.scheme != nil {
			density = res[i].density
		}
		out.AddRow(c.label, memoryMB(m, c.bpw, density), res[i].ppl)
	}
	out.Notes = append(out.Notes,
		"paper Figure 9: BQ4+DIP beats more aggressive static quantization; DIP composes with quantizers")
	return []*Table{out}, nil
}
