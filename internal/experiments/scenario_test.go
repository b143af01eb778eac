package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// parseScenario drives Bind + Validate the way dipbench does: a fresh flag
// set, the visited names as the set map.
func parseScenario(exp string, args ...string) error {
	fs := flag.NewFlagSet("dipbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var s Scenario
	s.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return s.Validate(exp, set)
}

// sample returns a valid command line setting the flag, plus the companion
// flags its cross-rules ask for.
func sample(f scenarioFlag) (alone, withCompanions []string) {
	var s Scenario
	switch f.field(&s).(type) {
	case *bool:
		alone = []string{"-" + f.name}
	case *int, *uint64:
		alone = []string{"-" + f.name, "2"}
	case *float64:
		alone = []string{"-" + f.name, "0.5"}
	case *string:
		alone = []string{"-" + f.name, "x"}
		if f.names != nil {
			alone[1] = f.names[0]
		}
	}
	switch f.name {
	case "events-format":
		return alone, append([]string{"-events", "x"}, alone...)
	case "detect-miss", "recover-ticks":
		return alone, append([]string{"-node-chaos", "0.5"}, alone...)
	}
	return alone, alone
}

// The grid column against a hand-kept oracle: the two exclusion lists the
// CLI carried before the table, plus the serve list it was missing (-serve
// without -nodes silently ignored every cluster flag).
func TestScenarioGridScope(t *testing.T) {
	foreign := map[string][]string{
		"serve":   {"nodes", "router", "drain-tick", "node-chaos", "detect-miss", "recover-ticks"},
		"chaos":   {"workload", "trace", "sched", "nodes", "router", "drain-tick", "node-chaos", "detect-miss", "recover-ticks"},
		"cluster": {"workload", "trace", "sched", "preempt", "faults", "retry", "shed"},
	}
	for _, f := range scenarioFlags {
		alone, full := sample(f)
		for _, exp := range []string{"", "fig2"} {
			if err := parseScenario(exp, alone...); err == nil || !strings.Contains(err.Error(), "-"+f.name) {
				t.Errorf("-exp %q %v: want an error naming -%s, got %v", exp, alone, f.name, err)
			}
		}
		for exp, list := range foreign {
			err := parseScenario(exp, full...)
			if !slices.Contains(list, f.name) {
				if err != nil {
					t.Errorf("%s grid reads -%s, but %v was rejected: %v", exp, f.name, full, err)
				}
			} else if err := parseScenario(exp, alone...); err == nil || !strings.Contains(err.Error(), "-"+f.name) {
				t.Errorf("%s grid does not read -%s: want an error naming it, got %v", exp, f.name, err)
			}
		}
		if err := parseScenario("all", full...); (err != nil) != (f.name == "small") {
			t.Errorf("-exp all %v: got %v (only -small is refused there: it forces the scale)", full, err)
		}
	}
}

func TestScenarioRejects(t *testing.T) {
	type row struct {
		exp  string
		args string
		want string // the flag the error must name
	}
	var rows []row
	for _, f := range scenarioFlags {
		exp := "serve"
		if f.grids&gridServe == 0 {
			exp = "cluster"
		}
		var s Scenario
		switch f.field(&s).(type) {
		case *string:
			if f.names != nil {
				rows = append(rows, row{exp, "-" + f.name + " bogus", f.name}, row{exp, "-" + f.name + "=", f.name})
			}
		case *int:
			rows = append(rows, row{exp, "-" + f.name + " 0", f.name}, row{exp, "-" + f.name + " -1", f.name})
		case *float64:
			for _, v := range []string{"0", "-1", "NaN", "+Inf", "-Inf"} {
				rows = append(rows, row{exp, "-" + f.name + " " + v, f.name})
			}
		}
	}
	rows = append(rows,
		row{"serve", "-faults 1.5", "faults"},
		row{"cluster", "-nodes 3 -node-chaos 1.5", "node-chaos"},
		row{"serve", "-events=", "events"},
		row{"serve", "-trace=", "trace"},
		row{"serve", "-events-format jsonl", "events-format"},
		row{"serve", "-trace t.json -workload poisson", "trace"},
		row{"serve", "-workload trace", "trace"},
		row{"serve", "-rate 0.5 -workload fixed", "rate"},
		row{"serve", "-rate 0.5 -trace t.json", "rate"},
		row{"serve", "-slo 10 -trace t.json", "slo"},
		row{"serve", "-slo 10 -workload trace -trace t.json", "slo"},
		row{"cluster", "-nodes 1 -drain-tick 5", "drain-tick"},
		row{"cluster", "-nodes 1 -node-chaos 0.1", "node-chaos"},
		row{"all", "-small", "small"},
		// Ignored before the table: a detector knob with no chaos replay to tune.
		row{"cluster", "-nodes 3 -detect-miss 2", "detect-miss"},
		row{"cluster", "-nodes 3 -recover-ticks 5", "recover-ticks"},
		row{"serve", "-router hash -detect-miss 9", "router"},
		// Retired policy values: the error lists the registry that survives.
		row{"serve", "-arb greedy", `arb: unknown value "greedy" (known: exclusive|fair|shared)`},
		row{"serve", "-preempt prio", `preempt: unknown value "prio" (known: none|deadline)`},
	)
	for _, r := range rows {
		err := parseScenario(r.exp, strings.Fields(r.args)...)
		if err == nil || !strings.Contains(err.Error(), "-"+r.want) {
			t.Errorf("-exp %s %s: want an error naming -%s, got %v", r.exp, r.args, r.want, err)
		}
	}
	// The CI-shaped command lines stay valid.
	for _, r := range []row{
		{exp: "serve", args: "-small -workload poisson -seed 7"},
		{exp: "serve", args: "-small -workload poisson -sched edf -rate 1 -slo 24 -preempt deadline"},
		{exp: "serve", args: "-small -sched edf -arb shared -faults 0.05 -retry 3 -shed 8 -events ev -events-format chrome -obs-window 64"},
		{exp: "serve", args: "-trace t.json -arb shared"},
		{exp: "chaos", args: "-small -faults 0.1 -retry 2 -shed 3 -preempt deadline -arb exclusive"},
		{exp: "cluster", args: "-small -nodes 1 -rate 0.5 -slo 48"},
		{exp: "cluster", args: "-small -nodes 3 -arb fair -router slo -drain-tick 10"},
		{exp: "cluster", args: "-small -nodes 3 -node-chaos 0.03 -recover-ticks 60 -detect-miss 4 -events ev"},
		{exp: "all", args: "-seed 3 -nodes 3 -faults 1"},
	} {
		if err := parseScenario(r.exp, strings.Fields(r.args)...); err != nil {
			t.Errorf("-exp %s %s: rejected: %v", r.exp, r.args, err)
		}
	}
}

// Every Scenario field is written by exactly one flag row, every row writes
// a Scenario field, and an enumerated flag's -h text lists its whole
// registry. (Bind itself panics on a flag name declared twice.)
func TestEveryScenarioFieldHasOneFlag(t *testing.T) {
	var s Scenario
	fs := flag.NewFlagSet("dipbench", flag.ContinueOnError)
	s.Bind(fs)
	v := reflect.ValueOf(&s).Elem()
	rows := make([]int, v.NumField())
	for _, f := range scenarioFlags {
		owner := -1
		for i := range rows {
			if v.Field(i).Addr().Interface() == f.field(&s) {
				owner = i
				rows[i]++
			}
		}
		if owner < 0 {
			t.Errorf("flag -%s writes no Scenario field", f.name)
		}
		for _, n := range f.names {
			if !strings.Contains(fs.Lookup(f.name).Usage, n) {
				t.Errorf("-%s usage omits registered name %q", f.name, n)
			}
		}
	}
	for i, n := range rows {
		if n != 1 {
			t.Errorf("Scenario.%s is written by %d flag rows, want 1", v.Type().Field(i).Name, n)
		}
	}
}

// The serve grid's trace workload: one four-entry trace, written as JSON
// and as CSV, replays to the same serve table through the file load and
// the dip/dipca binder table, and a scheme the table lacks fails by name.
func TestServeReplaysOneTraceFromJSONAndCSV(t *testing.T) {
	files := map[string]string{
		"trace.json": `[
  {"id": "a", "tick": 0, "tokens": 128},
  {"id": "b", "tick": 0, "tokens": 96, "start": 40, "scheme": "dip"},
  {"id": "c", "tick": 3, "tokens": 80, "start": 120, "class": "interactive", "priority": 2, "deadline_ticks": 60},
  {"id": "d", "tick": 5, "tokens": 128, "start": 200, "scheme": "dipca"}
]`,
		"trace.csv": `id,tick,tokens,start,class,priority,deadline_ticks,scheme
a,0,128,,,,,
b,0,96,40,,,,dip
c,3,80,120,interactive,2,60,
d,5,128,200,,,,dipca
`,
		"unknown.csv": "id,tick,tokens,scheme\na,0,128,cats\n",
		"short.csv":   "id,tick,tokens\na,0,128\nshort,2,8\n",
	}
	dir := t.TempDir()
	serve := func(name string) ([]*Table, error) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(files[name]), 0o644); err != nil {
			t.Fatal(err)
		}
		defer func(s Scenario) { sharedLab.Serve = s }(sharedLab.Serve)
		sharedLab.Serve = Scenario{Smoke: true, Workload: "trace", Trace: path}
		return Run(sharedLab, "serve")
	}
	render := func(tabs []*Table) string {
		var buf bytes.Buffer
		for _, tab := range tabs {
			withoutColumn(tab, "wall_tok_s").Render(&buf)
		}
		return buf.String()
	}
	fromJSON, err := serve("trace.json")
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := serve("trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	if render(fromJSON) != render(fromCSV) {
		t.Fatalf("the JSON and CSV traces render different tables:\n--- json ---\n%s--- csv ---\n%s", render(fromJSON), render(fromCSV))
	}
	tab := findTable(t, fromJSON, "serve")
	workload, sessions := slices.Index(tab.Columns, "workload"), slices.Index(tab.Columns, "sessions")
	simTokS := slices.Index(tab.Columns, "sim_tok_s")
	for _, row := range tab.Rows {
		if row[workload] != "trace" || row[sessions] != "4" || row[simTokS] == "0.000" {
			t.Fatalf("row %v: want the trace workload's 4 sessions, decoding", row)
		}
	}
	if _, err := serve("unknown.csv"); err == nil || !strings.Contains(err.Error(), `"cats"`) {
		t.Fatalf("unknown trace scheme: err = %v, want an error naming \"cats\"", err)
	}
	// An entry shorter than the evaluation window would decode nothing.
	want := fmt.Sprintf(`trace entry "short" has 8 tokens, fewer than the %d-token evaluation window`, sharedLab.EvalWin())
	if _, err := serve("short.csv"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("8-token trace entry: err = %v, want it to contain %q", err, want)
	}
}
