package experiments

import (
	"fmt"

	"repro/internal/eval"
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
	test := l.TestTokens(0)
	win := l.EvalWin()
	calib := l.CalibTokens()
	out := &Table{
		ID:      "fig9",
		Title:   "DIP vs and with quantization / static pruning (memory-perplexity plane)",
		Columns: []string{"config", "memory_mb", "ppl"},
	}
	densePPL := model.Perplexity(m, test, win, nil)
	out.AddRow("dense-fp16", memoryMB(m, 2.0, 1), densePPL)

	// Quantizer builds and their dense evaluations are independent; fan
	// them out, then emit rows in the fixed bq/vq/sparsegpt order.
	bqBits := []int{2, 3, 4}
	if l.Scale == model.ScaleTest {
		bqBits = []int{2, 4}
	}
	vqBits := []int{2, 3}
	if l.Scale == model.ScaleTest {
		vqBits = []int{3}
	}
	bqModels := make([]*model.Model, len(bqBits))
	bqPPL := make([]float64, len(bqBits))
	vqModels := make([]*model.Model, len(vqBits))
	vqPPL := make([]float64, len(vqBits))
	var sgPPL float64
	if err := forEach(len(bqBits)+len(vqBits)+1, func(i int) error {
		switch {
		case i < len(bqBits):
			bits := bqBits[i]
			qm, err := quant.BQModel(m, calib, win, bits)
			if err != nil {
				return fmt.Errorf("bq%d: %w", bits, err)
			}
			bqModels[i] = qm
			bqPPL[i] = model.Perplexity(qm, test, win, nil)
		case i < len(bqBits)+len(vqBits):
			bits := vqBits[i-len(bqBits)]
			qm := quant.VQModel(m, bits)
			vqModels[i-len(bqBits)] = qm
			vqPPL[i-len(bqBits)] = model.Perplexity(qm, test, win, nil)
		default:
			// SparseGPT at 4-bit storage with the 1-bit mask overhead.
			pm := l.SparseGPT(name, prune.Unstructured, 0.5)
			sgPPL = model.Perplexity(pm, test, win, nil)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, bits := range bqBits {
		out.AddRow(fmt.Sprintf("bq%d", bits), memoryMB(m, quant.BQBytesPerWeight(bits), 1), bqPPL[i])
	}
	for i, bits := range vqBits {
		out.AddRow(fmt.Sprintf("vq%d", bits), memoryMB(m, quant.VQBytesPerWeight(bits), 1), vqPPL[i])
	}
	bpw := 0.5 + prune.MaskOverheadBits/8 // 4-bit payload + mask bit
	out.AddRow("sparsegpt-50%+bq4", memoryMB(m, bpw, 0.5), sgPPL)
	// BQ4+DIP and VQ3+DIP density sweeps: dynamic sparsity on top of a
	// quantized model.
	densities := []float64{0.4, 0.5, 0.65, 0.8}
	if l.Scale == model.ScaleTest {
		densities = []float64{0.5, 0.8}
	}
	sweep := func(qm *model.Model, label string, bytesPerWeight float64) error {
		type dipRes struct{ ppl, meas float64 }
		results := make([]dipRes, len(densities))
		if err := forEach(len(densities), func(i int) error {
			ppl, meas := eval.PerplexityUnderScheme(qm, sparsity.NewDIP(densities[i]), test, win)
			results[i] = dipRes{ppl, meas}
			return nil
		}); err != nil {
			return err
		}
		for i, d := range densities {
			out.AddRow(fmt.Sprintf("%s+dip@%.2f", label, d), memoryMB(m, bytesPerWeight, results[i].meas), results[i].ppl)
		}
		return nil
	}
	for i, bits := range bqBits {
		if bits == 4 {
			if err := sweep(bqModels[i], "bq4", quant.BQBytesPerWeight(4)); err != nil {
				return nil, err
			}
		}
	}
	for i, bits := range vqBits {
		if bits == 3 {
			if err := sweep(vqModels[i], "vq3", quant.VQBytesPerWeight(3)); err != nil {
				return nil, err
			}
		}
	}
	out.Notes = append(out.Notes,
		"paper Figure 9: BQ4+DIP beats more aggressive static quantization; DIP composes with quantizers")
	return []*Table{out}, nil
}
