package main

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// sizes is how much work one rep of each workload does, and how often the
// harness repeats what it measures.
type sizes struct {
	name         string
	soloTokens   int // tokens of the solo stream
	batchTokens  int // tokens of the shorter serve-batch8 session; the longer is one window more
	overloadReqs int // requests of serve-overload
	chaosReqs    int // requests of cluster-chaos

	minReps int // timed reps per workload, however short the run
	// The set-up is timed before the first rep and again after every rep,
	// each time once and then until setupBudgetS has been spent (at most
	// maxSetups times): samples spread over the whole run see the same
	// host drift the reps do, and the millisecond set-ups of the mini-model
	// workloads get the larger sample a repeatable median needs.
	setupBudgetS float64
	probeK       int // batches per probe; the best one is reported
}

// A rep and its dense reference take two to four seconds on the 2-vCPU
// sizing runner, so a 20 s run holds five to eight of them. smoke is ~20x
// smaller, for tests; numbers from it are never recorded.
var (
	sizesFull = sizes{
		name: "full", soloTokens: 1024, batchTokens: 160, overloadReqs: 2000, chaosReqs: 2000,
		minReps: 3, setupBudgetS: 0.05, probeK: 7,
	}
	sizesSmoke = sizes{
		name: "smoke", soloTokens: 32, batchTokens: 32, overloadReqs: 96, chaosReqs: 96,
		minReps: 1, probeK: 2,
	}
)

const maxSetups = 16

const (
	soloWin     = 32 // evaluation window on the bw model
	reqTokens   = 16 // tokens (and window) of an overload/chaos request
	quantum     = 8  // tokens per session per tick, the engine default
	slots       = 8  // batch width of every engine
	chaosNodes  = 3
	chaosProcs  = 2
	dipDensity  = 0.5
	dipGamma    = 0.2
	hotShare    = 4  // 3 of every 4 cluster-chaos requests belong to tenant "hot"
	sloDeadline = 64 // ticks an interactive request may take

	// The run seed draws what the model decodes — token contents — and the
	// engines' tie-break shuffles. Two things it does not draw. Weights come
	// from modelSeed: the model is the system under test, not its input.
	// Arrival traces and the fault schedule come from scenarioSeed: the
	// latency metrics are tail statistics of the trace itself (across
	// fault schedules turn_p99_ticks on cluster-chaos ranges 28..100, across
	// arrival traces slo_attain on serve-overload moves 4%), so a trace is
	// part of a workload's definition, like its arrival rate.
	modelSeed    = 5
	scenarioSeed = 13
)

// bwConfig is the bandwidth-bound analog of bench_test.go: each MLP matrix
// is 768 KB, past the on-core caches, so decode streams weights the way
// the paper's device does.
func bwConfig() model.Config {
	return model.Config{
		Name: "bench-bw-sim", Vocab: model.DefaultVocab, Dim: 256, Layers: 2,
		Heads: 4, KVHeads: 2, DFF: 768, MaxSeq: 64, Act: nn.ActSiLU,
	}
}

// miniConfig is the paper-scale Phi-3-Mini analog: its plan maps to
// paper-scale bytes, so the cache budget is non-zero, and its kernels are
// tiny, so engine and cluster overhead dominate.
func miniConfig() model.Config {
	cfg, err := model.ConfigFor(model.Phi3MiniSim, model.ScalePaper)
	if err != nil {
		panic(err)
	}
	return cfg
}

// deriveSeed mixes the run seed with a stream name (FNV-1a, then a
// splitmix64 finalizer), so each workload draws from its own stream and
// adding a workload never perturbs another's inputs.
func deriveSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := h ^ (seed + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputs is everything a workload's set-up builds: what setup_s times.
type inputs struct {
	seed   uint64 // derived from (run seed, stream name)
	m      *model.Model
	sys    eval.SystemConfig
	tokens []int // the solo stream
	// reqs carry the workload's scheme, denseReqs the same tokens and SLOs
	// under sparsity.Dense (the paired reference).
	reqs, denseReqs []serving.Request
}

// requests returns the workload's requests, or the same requests under the
// dense scheme for the paired reference.
func (in *inputs) requests(dense bool) []serving.Request {
	if dense {
		return in.denseReqs
	}
	return in.reqs
}

func randomTokens(rng *tensor.RNG, n, vocab int) []int {
	toks := make([]int, n)
	for i := range toks {
		toks[i] = int(rng.Uint64() % uint64(vocab))
	}
	return toks
}

func system(win int) eval.SystemConfig {
	return eval.SystemConfig{Device: hwsim.A18Like(), Policy: cache.PolicyLFU, Win: win}
}

func dipca() sparsity.Scheme { return sparsity.NewDIPCA(dipDensity, dipGamma) }

// withScheme returns reqs with every request's scheme replaced.
func withScheme(reqs []serving.Request, s sparsity.Scheme) []serving.Request {
	out := append([]serving.Request(nil), reqs...)
	for i := range out {
		out[i].Scheme = s
	}
	return out
}

func setupSolo(seed uint64, sz sizes) *inputs {
	in := &inputs{seed: seed, m: model.New(bwConfig(), modelSeed), sys: system(soloWin)}
	in.tokens = randomTokens(tensor.NewRNG(seed).Split(1), sz.soloTokens, in.m.Cfg.Vocab)
	return in
}

func setupBatch8(seed uint64, sz sizes) *inputs {
	in := &inputs{seed: seed, m: model.New(bwConfig(), modelSeed), sys: system(soloWin)}
	rng := tensor.NewRNG(seed).Split(1)
	scheme := dipca()
	for i := 0; i < slots; i++ {
		n := sz.batchTokens + (i%2)*soloWin
		in.reqs = append(in.reqs, serving.Request{
			ID: fmt.Sprintf("s%d", i), Scheme: scheme,
			Tokens: randomTokens(rng, n, in.m.Cfg.Vocab),
		})
	}
	in.denseReqs = withScheme(in.reqs, sparsity.Dense{})
	return in
}

// setupRequests builds the overload/chaos request mix on the mini model:
// even requests are interactive (priority 2, a deadline), odd ones batch.
// With tenants set, three of four requests share the tenant "hot".
func setupRequests(seed uint64, n int, tenants bool) *inputs {
	in := &inputs{seed: seed, m: model.New(miniConfig(), modelSeed), sys: system(reqTokens)}
	corpus := randomTokens(tensor.NewRNG(seed).Split(1), n*reqTokens, in.m.Cfg.Vocab)
	scheme := dipca()
	in.reqs = make([]serving.Request, n)
	for i := range in.reqs {
		id := fmt.Sprintf("r%d", i)
		if tenants {
			tenant := fmt.Sprintf("t%d", i)
			if i%hotShare != hotShare-1 {
				tenant = "hot"
			}
			id = tenant + "/" + id
		}
		slo := serving.SLO{Class: "batch"}
		if i%2 == 0 {
			slo = serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: sloDeadline}
		}
		in.reqs[i] = serving.Request{
			ID: id, Scheme: scheme, SLO: slo,
			Tokens: corpus[i*reqTokens : (i+1)*reqTokens],
		}
	}
	in.denseReqs = withScheme(in.reqs, sparsity.Dense{})
	return in
}

// runOpts selects which variant of a workload one call runs.
type runOpts struct {
	// dense runs the paired reference: the same inputs under
	// sparsity.Dense. It feeds density_speedup only.
	dense bool
	// alt runs the equivalent path whose report must equal the main one's:
	// the per-session decode path on serve-batch8, one worker on
	// cluster-chaos. The warm-up rep runs it, which makes the equivalence
	// check free.
	alt bool
	// observe attaches an event recorder on serve-batch8 (obs.overhead_frac).
	observe bool
	// tr collects spans; nil on every timed rep.
	tr *tracer
}

// outcome is what one run of a workload produced, all of it on the sim
// clock: the caller times the call.
type outcome struct {
	tokens int
	// attempted is the requests sent, reported how many of them the
	// report accounts for, failed how many ended failed, shed or cancelled.
	attempted, reported, failed int
	sim                         map[string]float64 // sim-clock end-to-end metrics
	// report is the run's report with every Wall annotation zeroed; reps
	// are compared with reflect.DeepEqual.
	report any
	// layer holds the per-layer quantities read from the report and, on a
	// traced run, from the spans.
	layer map[string]float64
	// keep references the engine or cluster on a traced run, so the traced
	// pass can measure the live heap with it still reachable.
	keep any
}

// workload is one named set of inputs and the code path they drive.
type workload struct {
	name string
	why  string
	// stream names the seed stream the inputs are drawn from. The two solo
	// workloads share one, so solo-dense decodes exactly the tokens
	// solo-dipca does; every other workload has its own.
	stream string
	procs  int
	// altPath names what runOpts.alt runs instead ("" when the workload has
	// one path only).
	altPath string
	setup   func(seed uint64, sz sizes) *inputs
	run     func(in *inputs, o runOpts) (*outcome, error)
}

var workloads = []workload{
	{
		name:   "solo-dipca",
		why:    "The paper's case, batch-1 DIP-CA-50 decode: single-RHS sparse kernels, top-K, cache eviction and the meter do the work; engine and cluster do none.",
		stream: "solo", procs: 1, setup: setupSolo,
		run: func(in *inputs, o runOpts) (*outcome, error) { return runSolo(in, o, dipca()) },
	},
	{
		name:   "solo-dense",
		why:    "The bypass: same stream under the dense scheme, so no sparse kernel, no top-K, no eviction. A sparse-path optimisation must not move it.",
		stream: "solo", procs: 1, setup: setupSolo,
		run: func(in *inputs, o runOpts) (*outcome, error) { return runSolo(in, o, sparsity.Dense{}) },
	},
	{
		name:   "serve-batch8",
		why:    "Eight DIP-CA sessions fused on one shared cache: the multi-RHS batch kernels and slot-ordered commits, which solo decode never calls.",
		stream: "serve-batch8", procs: 1, setup: setupBatch8, run: runBatch8,
		altPath: "the per-session (NoFuse) decode path",
	},
	{
		name:   "serve-overload",
		why:    "Open-loop Poisson arrivals at 5x the service rate on tiny kernels: admission scans, per-request planning and allocation, and the report dominate.",
		stream: "serve-overload", procs: 1,
		setup: func(seed uint64, sz sizes) *inputs { return setupRequests(seed, sz.overloadReqs, false) },
		run:   runOverload,
	},
	{
		name:   "cluster-chaos",
		why:    "Three nodes under seeded crashes at 75% load: routing, detection, migration, the event log and the worker-pool fan-out, the only workload above one worker.",
		stream: "cluster-chaos", procs: chaosProcs, altPath: "one worker",
		setup: func(seed uint64, sz sizes) *inputs { return setupRequests(seed, sz.chaosReqs, true) },
		run:   runChaos,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func runSolo(in *inputs, o runOpts, s sparsity.Scheme) (*outcome, error) {
	if o.dense {
		s = sparsity.Dense{}
	}
	var (
		pt    eval.Point
		layer map[string]float64
		err   error
	)
	if o.tr != nil {
		pt, layer, err = tracedSolo(in, s, o.tr)
	} else {
		pt, err = eval.SystemEvaluate(in.m, s, in.tokens, in.sys)
	}
	if err != nil {
		return nil, err
	}
	tokens := len(in.tokens) / in.sys.Win * in.sys.Win
	return &outcome{
		tokens: tokens, attempted: 1, reported: 1, report: pt, layer: layer,
		sim: map[string]float64{
			"sim_tok_s": pt.Throughput, "hit_rate": pt.HitRate, "ppl": pt.PPL,
			// A solo stream is one request with no deadline, served alone:
			// attainment is vacuous, nothing is wasted, and its turnaround
			// is its own length in engine ticks.
			"slo_attain": 1, "goodput_frac": 1,
			"turn_p99_ticks": float64(tokens) / quantum,
		},
	}, nil
}

// servedSim is the sim-clock end-to-end metrics of an engine or cluster
// report.
func servedSim(simTokS, hitRate, attain, turnP99 float64, good, total int, sessions []serving.SessionMetrics) map[string]float64 {
	return map[string]float64{
		"sim_tok_s": simTokS, "hit_rate": hitRate, "ppl": meanPPL(sessions),
		"slo_attain": attain, "turn_p99_ticks": turnP99,
		"goodput_frac": float64(good) / float64(total),
	}
}

// failedOf counts the requests that ended failed, shed or cancelled.
func failedOf(sessions []serving.SessionMetrics) int {
	n := 0
	for _, sm := range sessions {
		if sm.Outcome != serving.OutcomeOK {
			n++
		}
	}
	return n
}

// engineOutcome reads the end-to-end and per-layer quantities of one
// engine report.
func engineOutcome(rep *serving.Report, attempted int) *outcome {
	norm := *rep
	norm.Wall = serving.WallClock{}
	return &outcome{
		tokens: rep.TotalTokens, attempted: attempted, reported: len(rep.Sessions),
		failed: failedOf(rep.Sessions), report: &norm,
		sim: servedSim(rep.SimTokS, rep.HitRate, rep.SLOAttainRate, rep.TurnaroundP99, rep.GoodTokens, rep.TotalTokens, rep.Sessions),
		layer: map[string]float64{
			"serving.ticks":            float64(rep.Ticks),
			"serving.batch_width_mean": float64(rep.TotalTokens) / float64(rep.Ticks*quantum),
			"serving.queue_p99_ticks":  rep.QueueP99,
			"serving.shed":             float64(rep.Shed),
			"serving.preemptions":      float64(rep.Preemptions),
			"cache.hits":               float64(rep.CacheHits),
			"cache.misses":             float64(rep.CacheMisses),
			"hwsim.sim_ms_per_tok":     1000 / rep.SimTokS,
		},
	}
}

// meanPPL is the token-weighted mean session perplexity. Weights are
// random, so it is a numerics checksum, not a quality claim.
func meanPPL(sessions []serving.SessionMetrics) float64 {
	var sum float64
	var n int
	for _, sm := range sessions {
		sum += sm.Point.PPL * float64(sm.Tokens)
		n += sm.Tokens
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runEngine builds one engine over w and runs it; construction is inside
// the caller's timed region because engines are single-shot.
func runEngine(in *inputs, cfg serving.Config, w serving.Workload, tr *tracer) (*serving.Engine, *outcome, error) {
	attempted := len(w.Requests())
	var tw *tickTracer
	if tr != nil {
		tw = newTickTracer(w, tr, "serving")
		w = tw
	}
	sp := tr.begin("serving.new_engine")
	e, err := serving.NewEngine(in.m, cfg, w)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("serving.run")
	rep, err := e.Run()
	if tw != nil {
		tw.finish("serving.drain_report")
	}
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	out := engineOutcome(rep, attempted)
	if tw != nil {
		out.keep = e
		servingTickLayer(out.layer, tr, tw)
	}
	return e, out, nil
}

func runBatch8(in *inputs, o runOpts) (*outcome, error) {
	reqs := in.requests(o.dense)
	cfg := serving.Config{
		System: in.sys, Arb: serving.ArbShared, MaxActive: slots, Quantum: quantum,
		Seed: in.seed, NoFuse: o.alt,
	}
	var rec *obs.Recorder
	if o.observe {
		rec = obs.NewRecorder(obs.Config{})
		cfg.Obs = rec
	}
	e, out, err := runEngine(in, cfg, serving.FixedBatch(reqs), o.tr)
	if err != nil {
		return nil, err
	}
	out.layer["cache.evictions"] = float64(e.SharedCache().TotalStats().Evictions)
	if rec != nil {
		// The snapshot is what a recorder adds to the report; drop it so an
		// observed run still compares equal to a plain one.
		out.report.(*serving.Report).Obs = nil
		if err := obsLayer(out.layer, rec.Events(), out.tokens); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runOverload(in *inputs, o runOpts) (*outcome, error) {
	reqs := in.requests(o.dense)
	// 20 requests a tick against 8 slots that each finish a 16-token
	// request in 2 ticks: five times the service rate. Arrivals are
	// independent users, hence open loop; latency is on the tick clock, so
	// it is timed from the due tick by construction.
	w, err := serving.PoissonArrivals(reqs, 20, scenarioSeed)
	if err != nil {
		return nil, err
	}
	cfg := serving.Config{
		System: in.sys, Arb: serving.ArbFairShare, Sched: serving.EDF(),
		MaxActive: slots, Quantum: quantum, Seed: in.seed,
	}
	_, out, err := runEngine(in, cfg, w, o.tr)
	return out, err
}

func runChaos(in *inputs, o runOpts) (*outcome, error) {
	reqs := in.requests(o.dense)
	if o.alt {
		parallel.SetProcs(1)
		defer parallel.SetProcs(chaosProcs)
	}
	// 3 nodes x 8 slots finish 12 requests a tick; 9 a tick is 75% of that.
	var w serving.Workload
	w, err := serving.PoissonArrivals(reqs, 9, scenarioSeed)
	if err != nil {
		return nil, err
	}
	tr := o.tr
	var tw *tickTracer
	if tr != nil {
		tw = newTickTracer(w, tr, "cluster")
		w = tw
	}
	nodes := make([]serving.Config, chaosNodes)
	for n := range nodes {
		nodes[n] = serving.Config{
			System: in.sys, Arb: serving.ArbFairShare, Sched: serving.EDF(),
			MaxActive: slots, Quantum: quantum, Seed: in.seed,
		}
	}
	sp := tr.begin("cluster.new")
	c, err := cluster.New(in.m, cluster.Config{
		Nodes: nodes, Router: cluster.LeastLoaded(), Seed: in.seed,
		Chaos:  faults.NodeChaos{Seed: scenarioSeed, CrashRate: 0.02, RecoverTicks: 12},
		Detect: cluster.Detect{Mode: "heartbeat"},
		Obs:    &obs.Config{},
	}, w)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cluster.run")
	rep, err := c.Run()
	if tw != nil {
		tw.finish("cluster.drain_report")
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cluster.events_merge")
	events := c.Events()
	tr.end(sp)
	sp = tr.begin("cluster.reconcile")
	err = rep.ReconcileObs()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := obs.WriteJSONL(io.Discard, events); err != nil {
		return nil, err
	}

	norm := *rep
	norm.Wall = serving.WallClock{}
	norm.Nodes = append([]cluster.NodeReport(nil), rep.Nodes...)
	var sessions []serving.SessionMetrics
	var hits, misses int64
	for i := range norm.Nodes {
		nr := *norm.Nodes[i].Report
		nr.Wall = serving.WallClock{}
		norm.Nodes[i].Report = &nr
		sessions = append(sessions, nr.Sessions...)
		hits += nr.CacheHits
		misses += nr.CacheMisses
	}
	out := &outcome{
		tokens: rep.TotalTokens, attempted: len(reqs), reported: len(sessions),
		failed: failedOf(sessions), report: &norm,
		sim: servedSim(rep.SimTokS, rep.HitRate, rep.SLOAttainRate, rep.TurnaroundP99, rep.GoodTokens, rep.TotalTokens, sessions),
		layer: map[string]float64{
			"cluster.ticks":            float64(rep.Ticks),
			"cluster.migrations":       float64(rep.Migrations),
			"cluster.stranded":         float64(rep.Stranded),
			"cluster.detect_lag_ticks": rep.MeanDetectLag,
			"cluster.availability":     rep.Availability,
			"cluster.imbalance":        rep.Imbalance,
			"faults.crashes":           float64(rep.Failures),
			"faults.rejoins":           float64(rep.Rejoins),
			"cache.hits":               float64(hits),
			"cache.misses":             float64(misses),
		},
	}
	if tw != nil {
		out.keep = c
		clusterTickLayer(out.layer, tr)
		if err := obsLayer(out.layer, events, rep.TotalTokens); err != nil {
			return nil, err
		}
	}
	return out, nil
}
