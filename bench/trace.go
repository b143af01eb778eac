package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// span is one timed call into a module, recorded from the harness side of
// the module's public API.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at the root
	Rep    int32  `json:"rep"`
}

// tracer appends spans to a preallocated slice and keeps the open span as
// the parent of the next one. A nil tracer records nothing, so the same
// workload code serves timed and traced runs.
type tracer struct {
	spans []span
	open  int32
	rep   int32
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity), open: -1}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Rep: t.rep})
	t.open = id
	t.spans[id].Start = now()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = now()
	t.open = t.spans[id].Parent
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// named collects, for one span name, the durations and self times in
// microseconds and their totals in nanoseconds.
type named struct {
	durUS, selfUS   []float64
	durSum, selfSum int64
}

func (t *tracer) byName() map[string]*named {
	self := t.selfTimes()
	out := map[string]*named{}
	for i, s := range t.spans {
		n := out[s.Name]
		if n == nil {
			n = &named{}
			out[s.Name] = n
		}
		d := s.End - s.Start
		n.durUS = append(n.durUS, float64(d)/1e3)
		n.selfUS = append(n.selfUS, float64(self[i])/1e3)
		n.durSum += d
		n.selfSum += self[i]
	}
	return out
}

// write stores the spans where a later analysis can read them.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("trace: encoding spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// tickTracer is a pass-through serving.Workload. Engine.Run and
// Cluster.Run call Next exactly once per loop iteration, so consecutive
// Next calls are tick boundaries: each call closes the previous tick's
// span and opens the next.
type tickTracer struct {
	serving.Workload
	tr     *tracer
	name   string
	open   int32
	ticks  int // tick spans opened
	inflow int // of those, opened while the workload still had arrivals to release
}

func newTickTracer(w serving.Workload, tr *tracer, module string) *tickTracer {
	return &tickTracer{Workload: w, tr: tr, name: module + ".tick", open: -1}
}

func (w *tickTracer) Next(tick int, finished []serving.Finished) []int {
	if w.open >= 0 {
		w.tr.end(w.open)
	}
	w.open = w.tr.begin(w.name)
	w.ticks++
	if !w.Workload.Done() {
		w.inflow = w.ticks
	}
	return w.Workload.Next(tick, finished)
}

// finish closes the last span when Run returns. That span holds the final
// tick and the report's assembly, so it takes the given name and leaves
// the tick count.
func (w *tickTracer) finish(name string) {
	if w.open < 0 {
		return
	}
	w.tr.spans[w.open].Name = name
	w.tr.end(w.open)
	w.open = -1
	w.ticks--
	w.inflow = min(w.inflow, w.ticks)
}

// spanMS is the summed duration of the spans of one name, in milliseconds.
func spanMS(by map[string]*named, name string) float64 {
	if n := by[name]; n != nil {
		return float64(n.durSum) / 1e6
	}
	return 0
}

// tickMS returns the durations of one module's tick spans in milliseconds,
// in tick order, and stores their median and p99.
func tickMS(layer map[string]float64, by map[string]*named, module string) []float64 {
	ticks := by[module+".tick"]
	if ticks == nil {
		return nil
	}
	ms := make([]float64, len(ticks.durUS))
	for i, us := range ticks.durUS {
		ms[i] = us / 1e3
	}
	layer[module+".tick_ms_p50"] = serving.Percentile(ms, 0.50)
	layer[module+".tick_ms_p99"] = serving.Percentile(ms, 0.99)
	return ms
}

// servingTickLayer turns the spans of one traced engine run into the
// serving module's timings.
func servingTickLayer(layer map[string]float64, tr *tracer, tw *tickTracer) {
	by := tr.byName()
	if ms := tickMS(layer, by, "serving"); ms != nil {
		// The first and last tenth of the ticks during which requests were
		// still arriving: the queue is shallow in one and at its deepest in
		// the other. Equal once admission is O(log Q).
		inflow := ms[:tw.inflow]
		tenth := (len(inflow) + 9) / 10
		layer["serving.tick_ms_shallow"] = median(inflow[:tenth])
		layer["serving.tick_ms_deep"] = median(inflow[len(inflow)-tenth:])
	}
	layer["serving.new_engine_ms"] = spanMS(by, "serving.new_engine")
	layer["serving.drain_report_ms"] = spanMS(by, "serving.drain_report")
}

// clusterTickLayer is the same for one traced cluster run.
func clusterTickLayer(layer map[string]float64, tr *tracer) {
	by := tr.byName()
	tickMS(layer, by, "cluster")
	layer["cluster.new_ms"] = spanMS(by, "cluster.new")
	layer["cluster.events_merge_ms"] = spanMS(by, "cluster.events_merge")
	layer["cluster.reconcile_ms"] = spanMS(by, "cluster.reconcile")
}

// obsLayer measures the event log of one observed run: its size, and what
// exporting it costs.
func obsLayer(layer map[string]float64, events []obs.Event, tokens int) error {
	if len(events) == 0 {
		return fmt.Errorf("obs: the observed run recorded no events")
	}
	var buf bytes.Buffer
	t0 := now()
	if err := obs.WriteJSONL(&buf, events); err != nil {
		return err
	}
	t1 := now()
	jsonlBytes := buf.Len()
	buf.Reset()
	t2 := now()
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		return err
	}
	t3 := now()
	layer["obs.events"] = float64(len(events))
	layer["obs.events_per_ktok"] = float64(len(events)) / float64(tokens) * 1000
	layer["obs.bytes_per_event"] = float64(jsonlBytes) / float64(len(events))
	layer["obs.export_jsonl_ms"] = float64(t1-t0) / 1e6
	layer["obs.export_chrome_ms"] = float64(t3-t2) / 1e6
	return nil
}

// tracedSolo is eval.SystemEvaluate rebuilt from the same public pieces —
// the body of eval.Hook inside eval.Stream's window loop — with a span
// around each call into a module. It must reproduce SystemEvaluate's Point
// bit for bit; the caller checks that it does.
func tracedSolo(in *inputs, s sparsity.Scheme, tr *tracer) (eval.Point, map[string]float64, error) {
	m := in.m
	plan, err := hwsim.NewPlan(m, in.sys.Device, hwsim.PlanOpts{
		BytesPerWeight: in.sys.BytesPerWeight, Groups: hwsim.ProbeGroups(s, m),
	})
	if err != nil {
		return eval.Point{}, nil, err
	}
	mc := plan.NewCache(in.sys.Policy)
	meter := plan.NewMeter()
	acc := eval.NewDensityAccumulator(m)
	var hits, misses int64
	hook := func(layer int, x tensor.Vec) tensor.Vec {
		if layer == 0 {
			meter.BeginToken()
		}
		sp := tr.begin("sparsity.forward")
		y, ta := s.Forward(layer, x, m.Blocks[layer].MLP, mc)
		tr.end(sp)
		acc.Add(&ta)
		sp = tr.begin("cache.access")
		res := mc.Access(layer, &ta)
		tr.end(sp)
		sp = tr.begin("hwsim.meter")
		meter.AddAccess(res)
		tr.end(sp)
		for g := range res.HitUnits {
			hits += int64(res.HitUnits[g])
			misses += int64(res.MissUnits[g])
		}
		return y
	}

	win := in.sys.Win
	total := len(in.tokens) / win * win
	var (
		dec       *model.Decoder
		winPos    int
		preds     int
		winCE, ce float64
	)
	for pos := 0; pos < total; {
		step := tr.begin("eval.step")
		if winPos == 0 {
			if dec == nil {
				dec = m.NewDecoder(hook)
			} else {
				dec.Reset()
			}
		}
		sp := tr.begin("model.step")
		logits := dec.Step(in.tokens[pos])
		tr.end(sp)
		pos++
		winPos++
		if winPos < win {
			winCE += tensor.LogSumExp(logits) - float64(logits[in.tokens[pos]])
			preds++
		} else {
			ce += winCE
			winCE = 0
			winPos = 0
		}
		tr.end(step)
	}
	pt := eval.Point{
		Scheme: s.Name(), Density: acc.Mean(), Throughput: meter.Throughput(),
		LatencyS: meter.Latency(),
	}
	if preds > 0 {
		pt.PPL = nn.Perplexity((ce + winCE) / float64(preds))
	}
	if t := hits + misses; t > 0 {
		pt.HitRate = float64(hits) / float64(t)
	}
	return pt, soloLayer(tr, pt, mc.TotalStats()), nil
}

// soloLayer attributes the traced solo loop's time: shares are self time
// over the summed step spans.
func soloLayer(tr *tracer, pt eval.Point, st cache.Stats) map[string]float64 {
	by := tr.byName()
	steps := by["eval.step"]
	share := func(name string) float64 { return float64(by[name].selfSum) / float64(steps.durSum) }
	stepMS := make([]float64, len(steps.durUS))
	for i, us := range steps.durUS {
		stepMS[i] = us / 1e3
	}
	return map[string]float64{
		"sparsity.forward_us_p50": serving.Percentile(by["sparsity.forward"].durUS, 0.50),
		"sparsity.forward_us_p99": serving.Percentile(by["sparsity.forward"].durUS, 0.99),
		"sparsity.forward_share":  share("sparsity.forward"),
		"sparsity.density":        pt.Density,
		"cache.access_us_p50":     serving.Percentile(by["cache.access"].durUS, 0.50),
		"cache.access_us_p99":     serving.Percentile(by["cache.access"].durUS, 0.99),
		"cache.access_share":      share("cache.access"),
		"cache.hits":              float64(st.Hits),
		"cache.misses":            float64(st.Misses),
		"cache.evictions":         float64(st.Evictions),
		"hwsim.meter_share":       share("hwsim.meter"),
		"hwsim.sim_ms_per_tok":    pt.LatencyS * 1000,
		"model.step_self_us_p50":  serving.Percentile(by["model.step"].selfUS, 0.50),
		"model.step_self_share":   share("model.step"),
		"eval.step_ms_p50":        serving.Percentile(stepMS, 0.50),
		"eval.step_ms_p99":        serving.Percentile(stepMS, 0.99),
	}
}
