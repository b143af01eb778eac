// Command bench is the repository's benchmark: five named workloads, eleven
// end-to-end metrics on two clocks (the host's and the simulator's), and a
// traced pass that attributes host time to each module by timing calls into
// its public functions. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/parallel"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	aa       bool
	sizes    sizes
	traceDir string // where the traced pass writes its spans
}

func main() {
	var o options
	var scale string
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all five, reps interleaved)")
	flag.Uint64Var(&o.seed, "seed", 7, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of timed reps per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.BoolVar(&o.aa, "aa", false, "run the timed set twice and compare the two against the bounds")
	flag.StringVar(&scale, "scale", "full", "full, or smoke (~20x smaller, for tests; never record its numbers)")
	flag.Parse()
	switch scale {
	case "full":
		o.sizes = sizesFull
	case "smoke":
		o.sizes = sizesSmoke
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -scale %q (full|smoke)\n", scale)
		os.Exit(2)
	}
	o.traceDir = filepath.Join("bench", "out")
	if flag.NArg() > 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-aa] [-scale full|smoke]")
		os.Exit(2)
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// lane is one workload's measurements within one set of runs. -aa runs two
// sets; everything else runs one.
type lane struct {
	w   *workload
	set int
	in  *inputs

	setupS []float64
	warm   *outcome // the alternate path's run, untimed
	first  *outcome // rep 1, the reference every later rep must equal
	reps   []repCost
	spentS float64

	layer    map[string]float64 // traced pass
	problems []string
}

// repCost is one timed rep and its paired dense reference.
type repCost struct {
	main hostCost
	refS float64
}

func (l *lane) problemf(format string, args ...any) {
	l.problems = append(l.problems, l.w.name+": "+fmt.Sprintf(format, args...))
}

func run(o options, out io.Writer) (bool, error) {
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	sets := 1
	if o.aa {
		sets = 2
	}
	var lanes []*lane
	for set := 0; set < sets; set++ {
		for i := range selected {
			lanes = append(lanes, &lane{w: &selected[i], set: set})
		}
	}

	for _, l := range lanes {
		l.setUp(o)
	}
	for _, l := range lanes {
		if err := l.warmUp(); err != nil {
			return false, err
		}
	}
	// Reps are interleaved round-robin — rep 1 of every lane, then rep 2 —
	// so host drift lands on every workload, and on both -aa sets, alike.
	for running := true; running; {
		running = false
		for _, l := range lanes {
			if len(l.reps) >= o.sizes.minReps && l.spentS+l.lastRepS() > o.seconds {
				continue
			}
			if err := l.rep(); err != nil {
				return false, err
			}
			l.setUp(o)
			running = true
		}
	}
	var probed map[string]float64
	if o.trace == 1 {
		var err error
		if probed, err = probes(o.seed, o.sizes.probeK); err != nil {
			return false, err
		}
		for _, l := range lanes[:len(selected)] {
			if err := l.tracedPass(o.traceDir); err != nil {
				return false, err
			}
		}
	}

	correct := true
	for _, l := range lanes {
		l.check(o)
		for _, p := range l.problems {
			correct = false
			fmt.Fprintln(out, "CHECK FAILED:", p)
		}
	}
	printProvenance(out, o)
	for _, l := range lanes {
		l.print(out)
	}
	if probed != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		_, probed["host.peak_rss_mb"] = rusage()
		probed["host.gc_cycles"] = float64(ms.NumGC)
		probed["host.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
		fmt.Fprintf(out, "\nprobes and process totals (the same for every workload)\n")
		printLayer(out, probed)
	}
	if o.aa && !compareSets(out, lanes, len(selected)) {
		correct = false
	}
	if o.workload != "" {
		if err := printResultLine(out, lanes[0], o, probed, correct); err != nil {
			return false, err
		}
	}
	return correct, nil
}

// setUp builds the workload's inputs and times it, at least once and until
// the set-up budget is spent. The first result is kept for every rep; later
// ones are thrown away. Model weights, token corpus and request slices are
// set-up; engines and clusters are not, because every run pays for them.
func (l *lane) setUp(o options) {
	seed := deriveSeed(o.seed, l.w.stream)
	for spent, n := 0.0, 0; n == 0 || (spent < o.sizes.setupBudgetS && n < maxSetups); n++ {
		runtime.GC()
		t0 := now()
		in := l.w.setup(seed, o.sizes)
		s := float64(now()-t0) / 1e9
		l.setupS = append(l.setupS, s)
		spent += s
		if l.in == nil {
			l.in = in
		}
	}
}

// warmUp runs the workload once untimed, through its alternate path where
// it has one, so the equivalence check costs no extra run.
func (l *lane) warmUp() error {
	parallel.SetProcs(l.w.procs)
	var err error
	l.warm, err = l.w.run(l.in, runOpts{alt: true})
	if err != nil {
		return fmt.Errorf("%s: warm-up: %w", l.w.name, err)
	}
	return nil
}

func (l *lane) lastRepS() float64 {
	if len(l.reps) == 0 {
		return 0
	}
	r := l.reps[len(l.reps)-1]
	return r.main.wallS + r.refS
}

// rep runs one timed rep, then its dense reference over the same inputs.
func (l *lane) rep() error {
	parallel.SetProcs(l.w.procs)
	var got *outcome
	cost, err := timed(func() (err error) {
		got, err = l.w.run(l.in, runOpts{})
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: rep %d: %w", l.w.name, len(l.reps)+1, err)
	}
	if l.first == nil {
		l.first = got
	} else if !reflect.DeepEqual(got.report, l.first.report) {
		l.problemf("rep %d's report differs from rep 1's", len(l.reps)+1)
	}
	ref, err := timed(func() error {
		_, err := l.w.run(l.in, runOpts{dense: true})
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: dense reference %d: %w", l.w.name, len(l.reps)+1, err)
	}
	l.reps = append(l.reps, repCost{main: cost, refS: ref.wallS})
	l.spentS += cost.wallS + ref.wallS
	return nil
}

// tracedPass re-runs one rep with spans on and derives the per-layer
// metrics. The traced run must produce rep 1's report: for the solo
// workloads that is the bit-identity of the harness's own loop with
// eval.SystemEvaluate.
func (l *lane) tracedPass(traceDir string) error {
	parallel.SetProcs(l.w.procs)
	tr := newTracer(1 << 16)
	var got *outcome
	cost, err := timed(func() (err error) {
		got, err = l.w.run(l.in, runOpts{tr: tr})
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: traced rep: %w", l.w.name, err)
	}
	// The live heap with the engine or cluster and its report still
	// reachable: what a long-running server would hold.
	var live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(got.keep)
	if !reflect.DeepEqual(got.report, l.first.report) {
		l.problemf("the traced rep's report differs from rep 1's")
	}
	if err := tr.write(traceDir, l.w.name); err != nil {
		return err
	}

	l.layer = got.layer
	if _, served := l.layer["serving.ticks"]; served {
		l.layer["serving.allocs_per_session"] = float64(cost.mallocs) / float64(got.attempted)
		l.layer["serving.alloc_kb_per_session"] = float64(cost.allocBytes) / 1e3 / float64(got.attempted)
		l.layer["serving.heap_live_mb"] = float64(live.HeapAlloc) / 1e6
	}
	got.keep = nil

	// The tracing overhead is the traced rep against an untraced one run
	// straight after it, so both see the same host.
	plain, err := timed(func() error {
		_, err := l.w.run(l.in, runOpts{})
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: untraced pair of the traced rep: %w", l.w.name, err)
	}
	l.layer["host.trace_overhead_frac"] = 1 - plain.wallS/cost.wallS

	switch l.w.name {
	case "serve-batch8":
		var seen *outcome
		obsCost, err := timed(func() (err error) {
			seen, err = l.w.run(l.in, runOpts{observe: true})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: observed rep: %w", l.w.name, err)
		}
		if !reflect.DeepEqual(seen.report, l.first.report) {
			l.problemf("the observed rep's report differs from rep 1's")
		}
		for k, v := range seen.layer {
			if strings.HasPrefix(k, "obs.") {
				l.layer[k] = v
			}
		}
		l.layer["obs.overhead_frac"] = 1 - plain.wallS/obsCost.wallS
	case "cluster-chaos":
		serial, err := timed(func() error {
			_, err := l.w.run(l.in, runOpts{alt: true, tr: newTracer(1 << 12)})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: one-worker rep: %w", l.w.name, err)
		}
		l.layer["parallel.speedup"] = serial.wallS / cost.wallS
	}
	return nil
}

// check runs the output checks that need the whole lane.
func (l *lane) check(o options) {
	if !reflect.DeepEqual(l.warm.report, l.first.report) {
		if l.w.altPath != "" {
			l.problemf("the report through %s differs from rep 1's", l.w.altPath)
		} else {
			l.problemf("the warm-up's report differs from rep 1's")
		}
	}
	if l.first.attempted < 1 || l.first.reported != l.first.attempted {
		l.problemf("outcomes do not sum: the report accounts for %d of %d requests sent", l.first.reported, l.first.attempted)
	}
	if l.w.name == "cluster-chaos" && o.sizes.name == "full" {
		for _, k := range []string{"faults.crashes", "faults.rejoins", "cluster.migrations"} {
			if l.first.layer[k] < 1 {
				l.problemf("%s = %v: the chaos schedule exercised no such event", k, l.first.layer[k])
			}
		}
	}
	for _, spec := range endToEnd {
		if v := l.median(spec.Name); !(v > 0) {
			l.problemf("%s = %v: every end-to-end metric must be positive", spec.Name, v)
		}
	}
}

// values returns one end-to-end metric's per-rep samples. Sim-clock
// metrics have one value: every rep's report equals rep 1's.
func (l *lane) values(name string) []float64 {
	if v, ok := l.first.sim[name]; ok {
		return []float64{v}
	}
	if name == "setup_s" {
		return l.setupS
	}
	ktok := float64(l.first.tokens) / 1000
	vals := make([]float64, len(l.reps))
	for i, r := range l.reps {
		switch name {
		case "wall_tok_s":
			vals[i] = float64(l.first.tokens) / r.main.wallS
		case "density_speedup":
			vals[i] = r.refS / r.main.wallS
		case "cpu_ms_per_ktok":
			vals[i] = r.main.cpuS * 1000 / ktok
		case "alloc_mb_per_ktok":
			vals[i] = float64(r.main.allocBytes) / 1e6 / ktok
		}
	}
	return vals
}

func (l *lane) median(name string) float64 { return median(l.values(name)) }

func (l *lane) label() string {
	if l.set == 0 {
		return l.w.name
	}
	return fmt.Sprintf("%s#%d", l.w.name, l.set+1)
}

func (l *lane) print(out io.Writer) {
	fmt.Fprintf(out, "\n%s  procs=%d reps=%d ops_attempted=%d ops_failed=%d tokens/rep=%d\n",
		l.label(), l.w.procs, len(l.reps), l.first.attempted, l.first.failed, l.first.tokens)
	for _, spec := range endToEnd {
		vals := l.values(spec.Name)
		q1, med, q3 := quartiles(vals)
		fmt.Fprintf(out, "  %-26s %14.6g %-6s %-4s q1=%.6g q3=%.6g n=%d\n", spec.Name, med, spec.Unit, spec.Clock, q1, q3, len(vals))
	}
	printLayer(out, l.layer)
}

// printLayer prints the per-layer metrics present in layer, in registry
// order. A metric whose layer a workload does not exercise is omitted,
// never zero-filled.
func printLayer(out io.Writer, layer map[string]float64) {
	for _, spec := range perLayer {
		if v, ok := layer[spec.Name]; ok {
			fmt.Fprintf(out, "  %-36s %14.6g %-6s %s\n", spec.Name, v, spec.Unit, spec.Clock)
		}
	}
}

// worseBy is how far b is on the wrong side of a, as a share of a.
func worseBy(spec metricSpec, a, b float64) float64 {
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians, how much worse the second is, and the bound; it reports whether
// every pair stays within its bound.
func compareSets(out io.Writer, lanes []*lane, n int) bool {
	ok := true
	fmt.Fprintf(out, "\nA/A: second set against the first, same code, same seed\n")
	for i := 0; i < n; i++ {
		a, b := lanes[i], lanes[n+i]
		for _, spec := range endToEnd {
			ma, mb := a.median(spec.Name), b.median(spec.Name)
			worse := worseBy(spec, ma, mb)
			verdict := "ok"
			switch {
			case worse > spec.Bound:
				verdict, ok = "BREACH", false
			case spec.Clock == clockSim && ma != mb:
				// Same code, same seed: the simulator must repeat exactly.
				verdict, ok = "NOT EXACT", false
			}
			fmt.Fprintf(out, "  %-15s %-18s %14.6g %14.6g  worse by %+7.2f%%  bound %5.1f%%  %s\n",
				a.w.name, spec.Name, ma, mb, 100*worse, 100*spec.Bound, verdict)
		}
	}
	return ok
}

// printProvenance prints what regenerates the numbers below it.
func printProvenance(out io.Writer, o options) {
	fmt.Fprintf(out, "bench: commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d seed=%d scale=%s seconds=%g GOGC=%s\n",
		commit(), runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		o.seed, o.sizes.name, o.seconds, gogc())
	fmt.Fprintln(out, "bench: the hwsim device model is unvalidated against hardware: sim-clock numbers compare commits, not devices")
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// commit is the VCS revision the toolchain stamped into the binary, when
// it was built inside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev[:min(12, len(rev))] + dirty
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// printResultLine prints the one-object summary a driver reads: the
// end-to-end metrics, or with -trace 1 the per-layer metrics. A per-layer
// metric whose layer the workload does not exercise reads 0 there; the
// table above omits it instead.
func printResultLine(out io.Writer, l *lane, o options, probed map[string]float64, correct bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if o.trace == 1 {
		for _, spec := range perLayer {
			v, ok := l.layer[spec.Name]
			if !ok {
				v = probed[spec.Name]
			}
			metrics[spec.Name] = value{v, spec.Unit}
		}
	} else {
		for _, spec := range endToEnd {
			metrics[spec.Name] = value{l.median(spec.Name), spec.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, l.first.attempted, l.first.failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}
