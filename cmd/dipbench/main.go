// Command dipbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dipbench -list
//	dipbench -exp tab1                # one experiment at paper scale
//	dipbench -exp all -out results/   # everything, one file per experiment
//	dipbench -exp tab2 -scale test    # fast miniature run
//	dipbench -exp tab1 -ckpt ckpts/   # checkpoints written by the first run that trains them
//	dipbench -exp tab2 -procs 1       # pin the worker pool (serial run)
//	dipbench -exp tab2 -cpuprofile cpu.out -memprofile mem.out
//	dipbench -serve                   # serving grid: workload × scheduler × arbitration
//	dipbench -serve -small            # CI-sized serving smoke run
//	dipbench -serve -seed 42          # reproducible arrivals and admission order
//	dipbench -serve -workload poisson -rate 0.2 -sched edf -slo 200
//	dipbench -serve -workload trace -trace trace.json -arb shared
//	dipbench -serve -sched edf -preempt deadline  # deadline-aware preemption
//	dipbench -serve -small -faults 0.05 -retry 3 -shed 8  # seeded chaos on the grid
//	dipbench -exp chaos -small        # fault-injection grid: recovery vs baseline
//	dipbench -serve -small -events out/ev            # one JSONL event log per grid cell
//	dipbench -serve -small -events out/ev -events-format chrome -obs-window 64
//	dipbench -serve -nodes 3                  # sim-cluster: 3 replica engines behind a router
//	dipbench -serve -small -nodes 3 -router least-loaded -seed 7
//	dipbench -serve -small -nodes 3 -drain-tick 40   # drain the last node at tick 40
//	dipbench -serve -small -nodes 3 -node-chaos 0.02  # unscripted crash+recover chaos
//	dipbench -serve -small -nodes 3 -node-chaos 0.02 -detect-miss 4 -recover-ticks 30
//
// A serving flag the selected grid does not read is an error, not a silent
// override (see -h for which of -serve / -exp chaos / -serve -nodes N reads
// each; experiments.Scenario holds the one table and every rule). -nodes
// routes -serve to the cluster grid; -small conflicts with an explicit
// -scale paper.
//
// Every run also emits a machine-readable BENCH_results.json (per
// experiment: wall time in ns and the headline row of each table) into -out
// when set, else the working directory; -json overrides the path and
// -json none disables it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/parallel"
)

// benchTable is the JSON record of one rendered table.
type benchTable struct {
	ID          string            `json:"id"`
	Rows        int               `json:"rows"`
	HeadlineRow map[string]string `json:"headline_row,omitempty"`
}

// benchResult is the JSON record of one experiment run.
type benchResult struct {
	ID     string       `json:"id"`
	NS     int64        `json:"ns"`
	Tables []benchTable `json:"tables"`
}

// benchReport is the BENCH_results.json document.
type benchReport struct {
	Scale   string        `json:"scale"`
	Procs   int           `json:"procs"`
	Results []benchResult `json:"results"`
}

// fail reports an error and returns the process exit code; callers return
// it up through run so deferred cleanup (CPU profile flushing) still fires.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "dipbench: "+format+"\n", args...)
	return 1
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		scale      = flag.String("scale", "paper", "paper | test")
		ckpt       = flag.String("ckpt", "", "checkpoint directory (written by the first run that trains them)")
		outDir     = flag.String("out", "", "write each experiment's tables to <out>/<id>.txt as well as stdout")
		csvOut     = flag.Bool("csv", false, "also write <out>/<table id>.csv for plotting (e.g. tab2-sizes.csv)")
		verbose    = flag.Bool("v", true, "log lab progress to stderr")
		procs      = flag.Int("procs", 0, "worker-pool size (0 = GOMAXPROCS / $REPRO_PROCS; 1 = serial)")
		serve      = flag.Bool("serve", false, "run the multi-stream serving scenario (shorthand for -exp serve)")
		jsonPath   = flag.String("json", "", "BENCH_results.json path ('' = <out>/BENCH_results.json or ./BENCH_results.json; 'none' disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var scen experiments.Scenario
	scen.Bind(flag.CommandLine)
	flag.Parse()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *serve {
		if *exp != "" && *exp != "serve" {
			fmt.Fprintln(os.Stderr, "dipbench: -serve conflicts with -exp")
			return 2
		}
		*exp = "serve"
	}
	// -nodes N turns the serving run into the sim-cluster scenario: N
	// replica engines behind a session router instead of one engine.
	if set["nodes"] && *exp == "serve" {
		*exp = "cluster"
	}
	if err := scen.Validate(*exp, set); err != nil {
		fmt.Fprintf(os.Stderr, "dipbench: %v\n", err)
		return 2
	}
	if scen.Smoke {
		// -small runs at test scale; overriding an explicit -scale paper
		// silently would report miniature numbers as paper-scale ones.
		if set["scale"] && *scale != "test" {
			fmt.Fprintf(os.Stderr, "dipbench: -small runs at -scale test but -scale %s was requested; drop one of the two\n", *scale)
			return 2
		}
		*scale = "test"
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "dipbench: -exp required (try -list)")
		return 2
	}
	sc, err := model.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dipbench: -scale: %v\n", err)
		return 2
	}
	if *csvOut && *outDir == "" {
		fmt.Fprintln(os.Stderr, "dipbench: -csv needs -out: the CSV files go beside <out>/<id>.txt")
		return 2
	}
	if *procs > 0 {
		parallel.SetProcs(*procs)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	lab := experiments.NewLab(sc)
	lab.CheckpointDir = *ckpt
	lab.Serve = scen
	if *verbose {
		lab.Log = os.Stderr
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	report := benchReport{Scale: *scale, Procs: parallel.Procs()}
	for _, id := range ids {
		start := time.Now() //lint:allow wallclock ns/op benchmark annotation; the tables themselves are tick-clocked
		tables, err := experiments.Run(lab, id)
		if err != nil {
			return fail("%s: %v", id, err)
		}
		elapsed := time.Since(start) //lint:allow wallclock ns/op benchmark annotation; the tables themselves are tick-clocked
		res := benchResult{ID: id, NS: elapsed.Nanoseconds()}
		var sink *os.File
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return fail("%v", err)
			}
			f, err := os.Create(filepath.Join(*outDir, id+".txt"))
			if err != nil {
				return fail("%v", err)
			}
			sink = f
		}
		for _, tab := range tables {
			tab.Render(os.Stdout)
			if sink != nil {
				tab.Render(sink)
			}
			if *csvOut {
				f, err := os.Create(filepath.Join(*outDir, tab.ID+".csv"))
				if err != nil {
					sink.Close()
					return fail("%v", err)
				}
				err = tab.RenderCSV(f)
				f.Close()
				if err != nil {
					sink.Close()
					return fail("%v", err)
				}
			}
			bt := benchTable{ID: tab.ID, Rows: len(tab.Rows)}
			if len(tab.Rows) > 0 {
				last := tab.Rows[len(tab.Rows)-1]
				bt.HeadlineRow = make(map[string]string, len(tab.Columns))
				for ci, col := range tab.Columns {
					if ci < len(last) {
						bt.HeadlineRow[col] = last[ci]
					}
				}
			}
			res.Tables = append(res.Tables, bt)
		}
		if sink != nil {
			sink.Close()
		}
		report.Results = append(report.Results, res)
		fmt.Fprintf(os.Stderr, "dipbench: %s done in %v\n", id, elapsed.Round(time.Millisecond))
	}
	if err := writeReport(&report, *jsonPath, *outDir); err != nil {
		return fail("results json: %v", err)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail("memprofile: %v", err)
		}
		f.Close()
	}
	return 0
}

// writeReport emits BENCH_results.json. An explicit -json path wins; with
// -out set the report lands beside the per-experiment files; otherwise it
// goes to the working directory.
func writeReport(report *benchReport, jsonPath, outDir string) error {
	if jsonPath == "none" {
		return nil
	}
	path := jsonPath
	if path == "" {
		path = "BENCH_results.json"
		if outDir != "" {
			path = filepath.Join(outDir, "BENCH_results.json")
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dipbench: wrote %s\n", path)
	return nil
}
