package experiments

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/model"
	"repro/internal/serving/obs"
)

// The runs the extension rows read, each the Scenario of a dipbench -small
// command line, at seed 7 except the cluster-chaos golden row's. A run with
// Events writes its logs under its claim's t.TempDir(). The paper rows read
// each offline driver at the zero Scenario (dipbench -exp <id> -scale test),
// the run its table golden pins.
var (
	// dipbench -serve -small -workload poisson -seed 7
	servePoisson = run{"serve", Scenario{Smoke: true, Workload: "poisson", Seed: 7}}
	// ... -sched edf -rate 1 -slo 24 -preempt none|deadline: the rate and
	// deadline are tuned so admission-only EDF misses deadlines.
	preemptNone     = run{"serve", Scenario{Smoke: true, Workload: "poisson", Seed: 7, Sched: "edf", Rate: 1, SLO: 24, Preempt: "none"}}
	preemptDeadline = run{"serve", Scenario{Smoke: true, Workload: "poisson", Seed: 7, Sched: "edf", Rate: 1, SLO: 24, Preempt: "deadline"}}
	// ... -faults 0.05 -retry 1 (no recovery), and -retry 3 -shed 8 on the
	// same fault schedule.
	chaosBase    = run{"serve", Scenario{Smoke: true, Workload: "poisson", Seed: 7, Faults: 0.05, Retry: 1}}
	chaosRecover = run{"serve", Scenario{Smoke: true, Workload: "poisson", Seed: 7, Faults: 0.05, Retry: 3, Shed: 8}}
	// dipbench -exp chaos -small -seed 7
	chaosGrid = run{"chaos", Scenario{Smoke: true, Seed: 7}}
	// dipbench -serve -small -workload poisson -seed 7 -sched edf -arb shared
	// -faults 0.05 -retry 3 -shed 8 -obs-window 64 -events ev, and the same
	// with -events-format chrome.
	obsJSONL  = run{"serve", Scenario{Smoke: true, Workload: "poisson", Seed: 7, Sched: "edf", Arb: "shared", Faults: 0.05, Retry: 3, Shed: 8, ObsWindow: 64, Events: "ev"}}
	obsChrome = run{"serve", Scenario{Smoke: true, Workload: "poisson", Seed: 7, Sched: "edf", Arb: "shared", Faults: 0.05, Retry: 3, Shed: 8, ObsWindow: 64, Events: "ev", EventsFormat: "chrome"}}
	// dipbench -serve -small -nodes 3 -router least-loaded|hash -seed 7
	// -rate 0.5 -slo 48, and one node at the same (3× per-node) rate.
	clusterLL   = run{"cluster", Scenario{Smoke: true, Nodes: 3, Router: "least-loaded", Seed: 7, Rate: 0.5, SLO: 48}}
	clusterHash = run{"cluster", Scenario{Smoke: true, Nodes: 3, Router: "hash", Seed: 7, Rate: 0.5, SLO: 48}}
	clusterOne  = run{"cluster", Scenario{Smoke: true, Nodes: 1, Seed: 7, Rate: 0.5, SLO: 48}}
	// The cluster-chaos golden row with -events ev.
	clusterChaos = run{"cluster", Scenario{Smoke: true, Nodes: 3, NodeChaos: 0.03, RecoverTicks: 60, Router: "least-loaded", Arb: "fair", Events: "ev"}}
)

// The rows the extension claims read, named by their key cells: each run's
// last table row (edf over shared is the last serve cell, fair the last
// cluster cell, the highest rate the last recovery summary).
var (
	edfShared = map[string]string{"sched": "edf", "policy": "shared"}
	fair      = map[string]string{"policy": "fair"}
	worstRate = map[string]string{"fault_rate": "0.050"}
)

// claim is one result a driver must show: paper names the table or figure
// it reproduces ("extension" for the serving, chaos, obs and cluster rows),
// and check reads the tables of runs, in order, and the event logs they
// wrote under dir.
type claim struct {
	name, paper string
	runs        []run
	check       func(t *testing.T, dir string, tabs [][]*Table)
}

var claims = []claim{
	{"fig2/trend-shapes", "Fig. 2", []run{{"fig2", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		fits := findTable(t, tabs[0], "fig2-fits")
		npu := cellF(t, fits, map[string]string{"series": "npu_tops"}, "annual_rate")
		mdl := cellF(t, fits, map[string]string{"series": "model_b_params"}, "annual_rate")
		dram := cellF(t, fits, map[string]string{"series": "dram_gb"}, "annual_rate")
		if npu < 1.2 || mdl < 1.5 {
			t.Errorf("exponential growth rates too low: npu %v model %v", npu, mdl)
		}
		if dram > 1.5 {
			t.Errorf("DRAM slope %v GB/yr implausibly steep", dram)
		}
	}},
	{"fig3/zero-contrast", "Fig. 3", []run{{"fig3", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		z := findTable(t, tabs[0], "fig3-zeros")
		swiglu := cellF(t, z, map[string]string{"model": model.Mistral7BSim}, "exact_zero_frac")
		relu := cellF(t, z, map[string]string{"model": model.ReluFiedSim}, "exact_zero_frac")
		if relu <= swiglu {
			t.Errorf("ReLU zero fraction %v should exceed SwiGLU %v", relu, swiglu)
		}
		if relu < 0.2 {
			t.Errorf("ReLU model should be naturally sparse, zero frac %v", relu)
		}
		if swiglu > 0.05 {
			t.Errorf("SwiGLU model should have almost no exact zeros, got %v", swiglu)
		}
	}},
	{"fig4/global-threshold-is-worst", "Fig. 4, at test scale only (paper scale: global 3.336 ppl, per-layer 3.337)", []run{{"fig4", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		ppl := findTable(t, tabs[0], "fig4-ppl")
		global := cellF(t, ppl, map[string]string{"strategy": "global"}, "ppl")
		perLayer := cellF(t, ppl, map[string]string{"strategy": "per-layer"}, "ppl")
		perToken := cellF(t, ppl, map[string]string{"strategy": "per-token"}, "ppl")
		dense := cellF(t, ppl, map[string]string{"strategy": "dense"}, "ppl")
		if global < perLayer || global < perToken {
			t.Errorf("global (%v) should be worst: per-layer %v per-token %v", global, perLayer, perToken)
		}
		if perToken < dense-0.01 {
			t.Errorf("per-token ppl %v below dense %v", perToken, dense)
		}
	}},
	{"fig6/predictor-gap", "Fig. 6", []run{{"fig6", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		// At 50% GLU density, recall on the ReLU-fied analog must beat the
		// SwiGLU analog.
		tab := findTable(t, tabs[0], "fig6")
		rSwiglu := cellF(t, tab, map[string]string{"model": model.Mistral7BSim, "strategy": "glu-predictive", "glu_density": "0.500"}, "pred_recall")
		rRelu := cellF(t, tab, map[string]string{"model": model.ReluFiedSim, "strategy": "glu-predictive", "glu_density": "0.500"}, "pred_recall")
		if rRelu <= rSwiglu {
			t.Errorf("predictor recall: relu %v should exceed swiglu %v", rRelu, rSwiglu)
		}
	}},
	{"tab1/dip-beats-baselines", "Table 1", []run{{"tab1", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		// Orderings that hold even at the miniature test scale (the full
		// DIP-vs-gate separation needs paper scale and aggressive sparsity;
		// see the tab4 row).
		tab := findTable(t, tabs[0], "tab1")
		ppl := func(method string) float64 {
			return cellF(t, tab, map[string]string{"model": model.Phi3MedSim, "method": method}, "ppl")
		}
		dense, oracle, dip, dipLora, up := ppl("dense"), ppl("glu-oracle"), ppl("dip"), ppl("dip+lora"), ppl("up")
		if oracle < dense-0.05 {
			t.Errorf("oracle ppl %v below dense %v", oracle, dense)
		}
		if oracle > dense*1.1 {
			t.Errorf("oracle ppl %v should be near dense %v", oracle, dense)
		}
		if dip >= up {
			t.Errorf("DIP ppl %v should beat up pruning %v", dip, up)
		}
		if !(dipLora < dip) {
			t.Errorf("DIP+LoRA ppl %v, want below DIP %v", dipLora, dip)
		}
		// DIP density must sit near the 50% target.
		if d := cellF(t, tab, map[string]string{"model": model.Phi3MedSim, "method": "dip"}, "measured_density"); d < 0.4 || d > 0.6 {
			t.Errorf("DIP measured density %v far from 0.5", d)
		}
	}},
	{"tab1/lora-recovers-sparse-loss", "Tables 1, 3 and 4", []run{{"tab1", Scenario{}}, {"tab3", Scenario{}}, {"tab4", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		// Adapters fine-tuned on the language-modelling loss with the sparse
		// MLP active lower DIP's and CATS's perplexity on every analog at
		// 50, 60 and 40 % density.
		for i, id := range []string{"tab1", "tab3", "tab4"} {
			tab := findTable(t, tabs[i], id)
			for _, row := range tab.Rows {
				if method, analog := row[0], row[1]; method == "dip" || method == "cats" {
					base := cellF(t, tab, map[string]string{"model": analog, "method": method}, "ppl")
					tuned := cellF(t, tab, map[string]string{"model": analog, "method": method + "+lora"}, "ppl")
					if !(tuned < base) {
						t.Errorf("%s %s: %s+lora ppl %v, want below %s's %v", id, analog, method, tuned, method, base)
					}
				}
			}
		}
	}},
	{"tab2/dipca-beats-dense", "Table 2", []run{{"tab2", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "tab2")
		tokS := func(method string) float64 {
			return cellF(t, tab, map[string]string{"model": model.Phi3MedSim, "method": method}, "tok_s_@+0.5ppl")
		}
		dense, dipca, dip := tokS("dense"), tokS("dip-ca"), tokS("dip")
		if dipca <= dense {
			t.Errorf("DIP-CA throughput %v should beat dense %v", dipca, dense)
		}
		// At miniature scale DIP-CA's perplexity cost can push its qualifying
		// density above plain DIP's, so only require it to stay competitive.
		// The strict DIP-CA > DIP separation does not hold at paper scale
		// either (dipbench -exp tab2 -scale paper): at +0.5 ppl only on
		// phi3med (0.712 against 0.685 tok/s), and at +0.2 it fails on all
		// four analogs (DIP-CA < DIP).
		if dipca < 0.7*dip {
			t.Errorf("DIP-CA throughput %v collapsed relative to DIP %v", dipca, dip)
		}
		sizes := findTable(t, tabs[0], "tab2-sizes")
		if gb := cellF(t, sizes, map[string]string{"model": model.Phi3MedSim}, "model_gb"); gb < 7 || gb > 8 {
			t.Errorf("phi3med analog should map to ~7.4 GB, got %v", gb)
		}
	}},
	{"tab4/aggressive-sparsity-ordering", "Table 4", []run{{"tab4", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "tab4")
		ppl := func(method string) float64 {
			return cellF(t, tab, map[string]string{"model": model.Phi3MedSim, "method": method}, "ppl")
		}
		dense, oracle, dip, up := ppl("dense"), ppl("glu-oracle"), ppl("dip"), ppl("up")
		// At 40% density the oracle stays near dense while real methods pay.
		if oracle > dense*1.15 {
			t.Errorf("oracle ppl %v far from dense %v at 40%%", oracle, dense)
		}
		if dip <= dense {
			t.Errorf("DIP at 40%% (%v) should cost perplexity over dense (%v)", dip, dense)
		}
		// Up pruning (scoring by partial activations) trails DIP at aggressive
		// sparsity — the Table 4 shape that survives miniature scale.
		if dip >= up {
			t.Errorf("DIP %v should beat up pruning %v at 40%%", dip, up)
		}
	}},
	{"tab5/task-spread", "Table 5", []run{{"tab5", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		// Every accuracy is a valid percentage and the dense model beats 4-way
		// chance on the character-statistics task.
		tab := findTable(t, tabs[0], "tab5")
		for _, row := range tab.Rows {
			if acc, err := strconv.ParseFloat(row[3], 64); err != nil || acc < 0 || acc > 100 {
				t.Errorf("bad accuracy row %v", row)
			}
		}
		spelling := cellF(t, tab, map[string]string{"model": model.Phi3MedSim, "method": "dense", "task": "spelling"}, "acc_%")
		if spelling < 40 {
			t.Errorf("dense spelling accuracy %v near chance", spelling)
		}
	}},
	{"tab6/dense-grows-with-dram", "Table 6", []run{{"tab6", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		// Dense throughput strictly increases with DRAM size.
		tab := findTable(t, tabs[0], "tab6")
		small := cellF(t, tab, map[string]string{"device": "dram-2gb", "method": "dense"}, "tok_s_@+0.5ppl")
		big := cellF(t, tab, map[string]string{"device": "dram-6gb", "method": "dense"}, "tok_s_@+0.5ppl")
		if big <= small {
			t.Errorf("dense throughput should grow with DRAM: %v -> %v", small, big)
		}
	}},
	{"tab7/dense-grows-with-flash", "Table 7", []run{{"tab7", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "tab7")
		slow := cellF(t, tab, map[string]string{"device": "flash-0.5GBs", "method": "dense"}, "tok_s_@+0.5ppl")
		fast := cellF(t, tab, map[string]string{"device": "flash-2GBs", "method": "dense"}, "tok_s_@+0.5ppl")
		if fast <= slow {
			t.Errorf("dense throughput should grow with flash speed: %v -> %v", slow, fast)
		}
		// Flash is the bottleneck: 4× bandwidth buys ≥2× throughput for dense.
		if fast < 2*slow {
			t.Errorf("flash scaling too weak: %v vs %v", fast, slow)
		}
	}},
	{"fig9/composes", "Fig. 9", []run{{"fig9", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		// BQ4 memory < dense-fp16 memory; BQ4+DIP memory < BQ4 memory.
		tab := findTable(t, tabs[0], "fig9")
		dense := cellF(t, tab, map[string]string{"config": "dense-fp16"}, "memory_mb")
		bq4 := cellF(t, tab, map[string]string{"config": "bq4"}, "memory_mb")
		bq4dip := cellF(t, tab, map[string]string{"config": "bq4+dip@0.50"}, "memory_mb")
		if !(bq4 < dense && bq4dip < bq4) {
			t.Errorf("memory ordering wrong: dense %v bq4 %v bq4+dip %v", dense, bq4, bq4dip)
		}
		// BQ2 quality worse than BQ4.
		p2 := cellF(t, tab, map[string]string{"config": "bq2"}, "ppl")
		p4 := cellF(t, tab, map[string]string{"config": "bq4"}, "ppl")
		if p4 > p2 {
			t.Errorf("bq4 ppl %v should beat bq2 %v", p4, p2)
		}
	}},
	{"fig10/gamma-sweep-shape", "Fig. 10", []run{{"fig10", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		sweep := findTable(t, tabs[0], "fig10")
		// Throughput at γ=0.2 must exceed γ=1 (plain DIP).
		t02 := cellF(t, sweep, map[string]string{"gamma": "0.200"}, "tok_s")
		t1 := cellF(t, sweep, map[string]string{"gamma": "1.000"}, "tok_s")
		if t02 <= t1 {
			t.Errorf("γ=0.2 throughput %v should exceed γ=1 %v", t02, t1)
		}
		// Perplexity at extreme γ (cache dictates everything) must be worse
		// than plain DIP.
		pTiny := cellF(t, sweep, map[string]string{"gamma": "0.001"}, "ppl")
		p1 := cellF(t, sweep, map[string]string{"gamma": "1.000"}, "ppl")
		if pTiny < p1 {
			t.Errorf("extreme γ ppl %v should be worse than plain DIP %v", pTiny, p1)
		}
	}},
	{"fig11/policy-ordering", "Fig. 11", []run{{"fig11", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		// At the mid density, no-cache ≤ LFU ≤ Belady in throughput, and
		// Belady's hit rate bounds LFU's.
		tab := findTable(t, tabs[0], "fig11")
		at := func(config, col string) float64 {
			return cellF(t, tab, map[string]string{"config": config, "density": "0.600"}, col)
		}
		none, lfu, bel := at("dip-nocache", "tok_s"), at("dip-lfu", "tok_s"), at("dip-belady", "tok_s")
		if none > lfu {
			t.Errorf("no-cache %v should not beat LFU %v", none, lfu)
		}
		if lfu > bel*1.0001 {
			t.Errorf("LFU %v should not beat Belady %v", lfu, bel)
		}
		if hLFU, hBel := at("dip-lfu", "hit_rate"), at("dip-belady", "hit_rate"); hLFU > hBel+1e-9 {
			t.Errorf("LFU hit rate %v above Belady %v", hLFU, hBel)
		}
	}},
	{"abl-alloc/negative-finding", "Appendix A", []run{{"abl-alloc", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "abl-alloc")
		at := func(allocation, col string) float64 {
			return cellF(t, tab, map[string]string{"allocation": allocation, "density": "0.500"}, col)
		}
		// The paper's negative finding: no *significant* improvement. Allow
		// ±15% either way but flag a large swing in either direction.
		if ratio := at("trace-weighted", "tok_s") / at("uniform", "tok_s"); ratio < 0.85 || ratio > 1.15 {
			t.Errorf("non-uniform allocation changed throughput by %.0f%%; expected a null result", 100*(ratio-1))
		}
		// Quality must be identical — allocation never touches the masks'
		// inputs for plain DIP.
		if puni, pwtd := at("uniform", "ppl"), at("trace-weighted", "ppl"); puni != pwtd {
			t.Errorf("allocation changed plain-DIP perplexity: %v vs %v", puni, pwtd)
		}
	}},
	{"fig12/fit-sane", "Appendix B.1", []run{{"fig12", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		for _, row := range findTable(t, tabs[0], "fig12").Rows {
			for _, col := range []int{1, 2, 3, 4} {
				if v, err := strconv.ParseFloat(row[col], 64); err != nil || v <= 0 || v > 1 {
					t.Errorf("allocation out of range in row %v", row)
				}
			}
		}
		if front := findTable(t, tabs[0], "fig12-front"); len(front.Rows) < 2 {
			t.Errorf("pareto front too small: %d rows", len(front.Rows))
		}
	}},
	{"fig14/covers-other-analogs", "Fig. 14", []run{{"fig14", Scenario{}}}, func(t *testing.T, _ string, tabs [][]*Table) {
		if len(tabs[0]) == 0 {
			t.Fatal("no tables")
		}
		for _, tab := range tabs[0] {
			if len(tab.Rows) < 3 {
				t.Errorf("table %s too small", tab.ID)
			}
		}
	}},
	{"serve/slo-attained", "extension", []run{servePoisson}, func(t *testing.T, _ string, tabs [][]*Table) {
		positive(t, findTable(t, tabs[0], "serve"), edfShared, "slo_attain")
	}},
	{"serve/deadline-preemption-fires", "extension", []run{preemptDeadline}, func(t *testing.T, _ string, tabs [][]*Table) {
		positive(t, findTable(t, tabs[0], "serve"), edfShared, "preempts")
	}},
	{"serve/deadline-preemption-lifts-attainment", "extension", []run{preemptNone, preemptDeadline}, func(t *testing.T, _ string, tabs [][]*Table) {
		none := cellF(t, findTable(t, tabs[0], "serve"), edfShared, "slo_attain")
		deadline := cellF(t, findTable(t, tabs[1], "serve"), edfShared, "slo_attain")
		if !(deadline > none) {
			t.Errorf("slo_attain: deadline preemption %v, want above admission-only %v", deadline, none)
		}
	}},
	{"serve/retries-keep-goodput", "extension", []run{chaosRecover}, func(t *testing.T, _ string, tabs [][]*Table) {
		positive(t, findTable(t, tabs[0], "serve"), edfShared, "retries", "goodput")
	}},
	{"serve/recovery-lifts-attainment", "extension", []run{chaosBase, chaosRecover}, func(t *testing.T, _ string, tabs [][]*Table) {
		base := cellF(t, findTable(t, tabs[0], "serve"), edfShared, "slo_attain")
		recovered := cellF(t, findTable(t, tabs[1], "serve"), edfShared, "slo_attain")
		if !(recovered > base) {
			t.Errorf("slo_attain: retry+shed %v, want above no-recovery %v", recovered, base)
		}
	}},
	{"chaos/recovery-lifts-attainment", "extension", []run{chaosGrid}, func(t *testing.T, _ string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "chaos-recovery")
		base := cellF(t, tab, worstRate, "attain_base")
		recovered := cellF(t, tab, worstRate, "attain_recovery")
		if !(recovered > base) {
			t.Errorf("attain_recovery %v, want above attain_base %v", recovered, base)
		}
		positive(t, tab, worstRate, "goodput_recovery")
	}},
	{"obs/jsonl-sums-to-report", "extension", []run{obsJSONL}, func(t *testing.T, dir string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "serve")
		n := kinds(t, filepath.Join(dir, "ev-poisson-edf-none-shared.jsonl"))
		positive(t, tab, edfShared, "retries")
		if retries := cellF(t, tab, edfShared, "retries"); float64(n[obs.KindRetry]) != retries {
			t.Errorf("log has %d retry events, report %v retries", n[obs.KindRetry], retries)
		}
		if shed, logged := cellF(t, tab, edfShared, "shed"), n[obs.KindShed]+n[obs.KindDegrade]; float64(logged) != shed {
			t.Errorf("log has %d shed+degrade events, report %v shed", logged, shed)
		}
	}},
	{"obs/chrome-spans-pair", "extension", []run{obsChrome}, func(t *testing.T, dir string, _ [][]*Table) {
		spansPair(t, filepath.Join(dir, "ev-poisson-edf-none-shared.json"))
	}},
	{"cluster/failover-keeps-serving", "extension", []run{clusterLL}, func(t *testing.T, _ string, tabs [][]*Table) {
		positive(t, findTable(t, tabs[0], "cluster"), fair, "fail_migr", "fail_goodput")
	}},
	{"cluster/absorbs-3x-load", "extension", []run{clusterLL, clusterOne}, func(t *testing.T, _ string, tabs [][]*Table) {
		three := cellF(t, findTable(t, tabs[0], "cluster"), fair, "slo_attain")
		one := cellF(t, findTable(t, tabs[1], "cluster"), fair, "slo_attain")
		if !(three >= one) {
			t.Errorf("slo_attain: 3 least-loaded nodes %v, want at least one node's %v", three, one)
		}
	}},
	{"cluster/least-loaded-beats-hash", "extension", []run{clusterLL, clusterHash}, func(t *testing.T, _ string, tabs [][]*Table) {
		ll := cellF(t, findTable(t, tabs[0], "cluster"), fair, "slo_attain")
		hash := cellF(t, findTable(t, tabs[1], "cluster"), fair, "slo_attain")
		if !(ll > hash) {
			t.Errorf("slo_attain: least-loaded %v, want above hash %v", ll, hash)
		}
	}},
	{"cluster/detector-prices-its-lag", "extension", []run{clusterChaos}, func(t *testing.T, dir string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "cluster")
		positive(t, tab, fair, "detect_lag", "rejoins")
		off := cellF(t, tab, fair, "off_attain")
		chaos := cellF(t, tab, fair, "chaos_attain")
		oracle := cellF(t, tab, fair, "oracle_attain")
		if !(off < chaos && chaos <= oracle) {
			t.Errorf("attainment: off %v < detector %v <= oracle %v does not hold", off, chaos, oracle)
		}
		n := kinds(t, filepath.Join(dir, "ev-n3-least-loaded-fair-chaos.jsonl"))
		for _, k := range []obs.Kind{obs.KindHeartbeatMiss, obs.KindConfirm, obs.KindRejoin} {
			if n[k] == 0 {
				t.Errorf("chaos log has no %s event", k)
			}
		}
		// The oracle confirms on its first miss, the crash tick, so no
		// node is ever only suspect; detection off gives no verdict.
		n = kinds(t, filepath.Join(dir, "ev-n3-least-loaded-fair-chaos-oracle.jsonl"))
		if n[obs.KindConfirm] == 0 || n[obs.KindSuspect] != 0 {
			t.Errorf("oracle log has %d confirm and %d suspect events, want some and none", n[obs.KindConfirm], n[obs.KindSuspect])
		}
		n = kinds(t, filepath.Join(dir, "ev-n3-least-loaded-fair-chaos-off.jsonl"))
		for _, k := range []obs.Kind{obs.KindHeartbeatMiss, obs.KindSuspect, obs.KindConfirm} {
			if n[k] != 0 {
				t.Errorf("detection-off log has %d %s events, want none", n[k], k)
			}
		}
		for _, scenario := range []string{"steady", "drain", "fail"} {
			if len(kinds(t, filepath.Join(dir, "ev-n3-least-loaded-fair-"+scenario+".jsonl"))) == 0 {
				t.Errorf("%s log has no events", scenario)
			}
		}
	}},
}

// Every claim against the tables of its runs. Each run is one dipbench
// invocation and executes once per test binary (tablesFor); a run that
// exports event logs writes them under the claim's own directory.
func TestClaims(t *testing.T) {
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			if c.paper == "" {
				t.Fatal("no paper reference: name the table or figure, or say extension")
			}
			defer func() {
				if t.Failed() {
					t.Logf("paper: %s", c.paper)
				}
			}()
			dir := t.TempDir()
			tabs := make([][]*Table, len(c.runs))
			for i, r := range c.runs {
				if r.scen.Events != "" {
					r.scen.Events = filepath.Join(dir, r.scen.Events)
				}
				tabs[i] = tablesFor(t, r)
			}
			c.check(t, dir, tabs)
		})
	}
}

// positive fails unless every named cell of the keyed row is above zero.
func positive(t *testing.T, tab *Table, keys map[string]string, cols ...string) {
	t.Helper()
	for _, col := range cols {
		if v := cellF(t, tab, keys, col); !(v > 0) {
			t.Errorf("%s %v: %s = %v, want > 0", tab.ID, keys, col, v)
		}
	}
}

// kinds decodes a JSONL event log into obs.Events and counts them by kind.
func kinds(t *testing.T, path string) map[obs.Kind]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := make(map[obs.Kind]int)
	for dec := json.NewDecoder(f); ; {
		var ev obs.Event
		if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
			return n
		} else if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		n[ev.Kind]++
	}
}

// spansPair fails unless the Chrome trace at path has events and, on every
// (pid, tid) track, its B and E events alternate from a B, each E carrying
// its B's name.
func spansPair(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name, Ph string
			Pid, Tid int
		}
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("%s has no trace events", path)
	}
	type track struct{ pid, tid int }
	open := make(map[track]string) // a track's open span
	for _, te := range trace.TraceEvents {
		at := track{te.Pid, te.Tid}
		name, busy := open[at]
		switch {
		case te.Ph == "B" && busy:
			t.Fatalf("B %q on pid %d tid %d inside span %q", te.Name, te.Pid, te.Tid, name)
		case te.Ph == "B":
			open[at] = te.Name
		case te.Ph == "E" && (!busy || name != te.Name):
			t.Fatalf("E %q on pid %d tid %d closes %q", te.Name, te.Pid, te.Tid, name)
		case te.Ph == "E":
			delete(open, at)
		}
	}
	if len(open) > 0 {
		t.Errorf("spans left open: %v", open)
	}
}
