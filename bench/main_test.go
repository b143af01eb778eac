package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSmokeRunsEveryWorkload drives the whole harness — set-up, warm-up,
// timed reps with dense references, the traced pass, the probes and every
// output check — on the smoke sizes.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	var out bytes.Buffer
	t0 := now()
	ok, err := run(options{seed: 7, seconds: 0.05, trace: 1, sizes: sizesSmoke, traceDir: t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("output checks failed:\n%s", out.String())
	}
	// About 5 s on the 2-vCPU sizing runner. Logged, not asserted: a test
	// that fails on a slow runner measures the runner.
	t.Logf("smoke run took %.1f s", float64(now()-t0)/1e9)
	for _, w := range workloads {
		if !strings.Contains(out.String(), "\n"+w.name+"  procs=") {
			t.Errorf("no result block for workload %s", w.name)
		}
	}
	for _, spec := range perLayer {
		if !strings.Contains(out.String(), "  "+spec.Name+" ") {
			t.Errorf("the traced pass printed no %s on any workload", spec.Name)
		}
	}
}

// TestResultLine checks the one-object summary a driver reads, in both of
// its forms.
func TestResultLine(t *testing.T) {
	for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
		var out bytes.Buffer
		ok, err := run(options{workload: "serve-overload", seed: 3, seconds: 0.05, trace: trace, sizes: sizesSmoke, traceDir: t.TempDir()}, &out)
		if err != nil || !ok {
			t.Fatalf("trace %d: ok=%v err=%v\n%s", trace, ok, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		last := lines[len(lines)-1]
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(last), &keys); err != nil {
			t.Fatalf("trace %d: last line is not one JSON object: %v", trace, err)
		}
		if len(keys) != 4 {
			t.Errorf("trace %d: result object has %d keys, want exactly correct, attempted, failed, metrics", trace, len(keys))
		}
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(last))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %d: decoding the result object: %v", trace, err)
		}
		if !res.Correct || res.Attempted != sizesSmoke.overloadReqs || res.Failed != 0 {
			t.Errorf("trace %d: correct/attempted/failed = %v/%d/%d, want true/%d/0", trace, res.Correct, res.Attempted, res.Failed, sizesSmoke.overloadReqs)
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(specs))
		}
		for _, spec := range specs {
			m, ok := res.Metrics[spec.Name]
			if !ok || m.Value == nil || m.Unit != spec.Unit {
				t.Errorf("trace %d: metric %s missing or with unit %q, want %q", trace, spec.Name, m.Unit, spec.Unit)
			}
		}
	}
}

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(spec.Name) || seen[spec.Name] {
			t.Errorf("metric name %q is malformed or repeated", spec.Name)
		}
		seen[spec.Name] = true
		if !unit.MatchString(spec.Unit) {
			t.Errorf("metric %s: malformed unit %q", spec.Name, spec.Unit)
		}
		if spec.Better != "higher" && spec.Better != "lower" {
			t.Errorf("metric %s: better = %q", spec.Name, spec.Better)
		}
		if spec.Clock != clockHost && spec.Clock != clockSim {
			t.Errorf("metric %s: clock = %q", spec.Name, spec.Clock)
		}
	}
	for _, spec := range endToEnd {
		if spec.Bound <= 0 || spec.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", spec.Name, spec.Bound)
		}
	}
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the registry in
// sync: same workloads, same metrics, same units, directions and bounds.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bm.Paths)
	}
	if strings.Join(bm.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", bm.Command)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bm.RunSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the registry %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the registry", len(got), kind, len(want))
		}
		for i, spec := range want {
			g := got[i]
			if g.Name != spec.Name || g.Unit != spec.Unit || g.Better != spec.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the registry %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, spec.Name, spec.Unit, spec.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != spec.Bound):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the registry", kind, spec.Name, g.Bound, spec.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s carries a bound", kind, spec.Name)
			}
		}
	}
	same("end-to-end", bm.EndToEnd, endToEnd, true)
	same("per-layer", bm.PerLayer, perLayer, false)
}

// TestDerivedSeedsDifferAndAreStable pins the seed each stream derives from
// the default run seed: streams must differ from each other, and must never
// change, or every recorded sim-clock number changes with them. The two
// solo workloads share a stream on purpose: solo-dense is the bypass of
// solo-dipca only if it decodes the same tokens.
func TestDerivedSeedsDifferAndAreStable(t *testing.T) {
	pinned := map[string]uint64{
		"solo":           16138806390494872209,
		"serve-batch8":   12034315710256750090,
		"serve-overload": 2650443882653582274,
		"cluster-chaos":  12843679031261882488,
	}
	seen := map[uint64]string{}
	for _, w := range workloads {
		s := deriveSeed(7, w.stream)
		if other, dup := seen[s]; dup && other != w.stream {
			t.Errorf("streams %s and %s derive the same seed", w.stream, other)
		}
		seen[s] = w.stream
		if s == deriveSeed(8, w.stream) {
			t.Errorf("%s: derived seed ignores the run seed", w.stream)
		}
		if want, ok := pinned[w.stream]; !ok || s != want {
			t.Errorf("deriveSeed(7, %q) = %d, pinned %d", w.stream, s, want)
		}
	}
	if a, b := findWorkload("solo-dipca"), findWorkload("solo-dense"); a.stream != b.stream {
		t.Errorf("solo-dipca draws from %q and solo-dense from %q: the bypass must decode the same tokens", a.stream, b.stream)
	}
}
