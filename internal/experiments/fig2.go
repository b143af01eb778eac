package experiments

import (
	"math"
	"strconv"
)

// Figure 2 compares released-LLM sizes against NPU speed and DRAM capacity
// trends. The series below are the public data points the paper plots
// (Apple-silicon NPU TOPS and iPhone DRAM from Wikipedia; largest released
// LLM per year from Zhao et al., 2023). The driver reproduces the figure's
// analytical content: exponential fits for NPU speed and model size versus
// a linear fit for DRAM, demonstrating the widening memory gap.
type trendPoint struct {
	Year  int
	Value float64
}

var (
	npuTOPS = []trendPoint{
		{2017, 0.6}, {2018, 5}, {2019, 6}, {2020, 11}, {2021, 15.8},
		{2022, 17}, {2023, 35}, {2024, 38},
	}
	dramGB = []trendPoint{
		{2017, 3}, {2018, 4}, {2019, 4}, {2020, 6}, {2021, 6},
		{2022, 6}, {2023, 8}, {2024, 8},
	}
	modelBParams = []trendPoint{
		{2018, 0.34}, {2019, 11}, {2020, 175}, {2021, 530},
		{2022, 540}, {2023, 1000}, {2024, 1800},
	}
)

// expFit fits v = a·exp(b·(year−y0)) by least squares in log space and
// returns the annual growth factor exp(b) and R².
func expFit(points []trendPoint) (growth, r2 float64) {
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i] = float64(p.Year - points[0].Year)
		ys[i] = math.Log(p.Value)
	}
	b, r := linFit(xs, ys)
	return math.Exp(b), r
}

// linFit returns the least-squares slope and R² of y on x.
func linFit(xs, ys []float64) (slope, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / den
	// R² from the correlation coefficient.
	num := n*sxy - sx*sy
	den2 := math.Sqrt(den * (n*syy - sy*sy))
	if den2 == 0 {
		return slope, 1
	}
	r := num / den2
	return slope, r * r
}

// Fig2 regenerates the trend comparison.
func Fig2(l *Lab) ([]*Table, error) {
	series := &Table{
		ID:      "fig2",
		Title:   "NPU speed, DRAM capacity and LLM size by year",
		Columns: []string{"year", "npu_tops", "dram_gb", "model_b_params"},
	}
	byYear := make([][3]string, 2024-2017+1) // "-" where a series has no point
	for i, points := range [][]trendPoint{npuTOPS, dramGB, modelBParams} {
		for y := range byYear {
			byYear[y][i] = "-"
		}
		for _, p := range points {
			byYear[p.Year-2017][i] = strconv.FormatFloat(p.Value, 'f', -1, 64)
		}
	}
	for y, v := range byYear {
		series.AddRow(2017+y, v[0], v[1], v[2])
	}

	npuGrowth, npuR2 := expFit(npuTOPS)
	modelGrowth, modelR2 := expFit(modelBParams)
	var dxs, dys []float64
	for _, p := range dramGB {
		dxs = append(dxs, float64(p.Year-dramGB[0].Year))
		dys = append(dys, p.Value)
	}
	dramSlope, dramR2 := linFit(dxs, dys)
	fits := &Table{
		ID:      "fig2-fits",
		Title:   "Trend fits: exponential NPU/model growth vs linear DRAM growth",
		Columns: []string{"series", "fit", "annual_rate", "r2"},
	}
	fits.AddRow("npu_tops", "exponential", npuGrowth, npuR2)
	fits.AddRow("model_b_params", "exponential", modelGrowth, modelR2)
	fits.AddRow("dram_gb", "linear(GB/yr)", dramSlope, dramR2)
	fits.Notes = append(fits.Notes,
		"paper's claim: compute and model size grow exponentially while DRAM grows ~linearly (<1 GB/year)")
	return []*Table{series, fits}, nil
}
