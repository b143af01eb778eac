package experiments

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serving/obs"
)

// The runs the claims read, each the Scenario of a dipbench -small command
// line, at seed 7 except the cluster-chaos golden row's. A run with Events
// writes its logs under its claim's t.TempDir().
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

// The rows the claims read, named by their key cells: each run's last
// table row (edf over shared is the last serve cell, fair the last
// cluster cell, the highest rate the last recovery summary).
var (
	edfShared = map[string]string{"sched": "edf", "policy": "shared"}
	fair      = map[string]string{"policy": "fair"}
	worstRate = map[string]string{"fault_rate": "0.050"}
)

// claim is one result the serving, chaos and cluster drivers must show:
// check reads the tables of runs, in order, and the event logs they wrote
// under dir.
type claim struct {
	name  string
	runs  []run
	check func(t *testing.T, dir string, tabs [][]*Table)
}

var claims = []claim{
	{"serve/slo-attained", []run{servePoisson}, func(t *testing.T, _ string, tabs [][]*Table) {
		positive(t, findTable(t, tabs[0], "serve"), edfShared, "slo_attain")
	}},
	{"serve/deadline-preemption-fires", []run{preemptDeadline}, func(t *testing.T, _ string, tabs [][]*Table) {
		positive(t, findTable(t, tabs[0], "serve"), edfShared, "preempts")
	}},
	{"serve/deadline-preemption-lifts-attainment", []run{preemptNone, preemptDeadline}, func(t *testing.T, _ string, tabs [][]*Table) {
		none := cellF(t, findTable(t, tabs[0], "serve"), edfShared, "slo_attain")
		deadline := cellF(t, findTable(t, tabs[1], "serve"), edfShared, "slo_attain")
		if !(deadline > none) {
			t.Errorf("slo_attain: deadline preemption %v, want above admission-only %v", deadline, none)
		}
	}},
	{"serve/retries-keep-goodput", []run{chaosRecover}, func(t *testing.T, _ string, tabs [][]*Table) {
		positive(t, findTable(t, tabs[0], "serve"), edfShared, "retries", "goodput")
	}},
	{"serve/recovery-lifts-attainment", []run{chaosBase, chaosRecover}, func(t *testing.T, _ string, tabs [][]*Table) {
		base := cellF(t, findTable(t, tabs[0], "serve"), edfShared, "slo_attain")
		recovered := cellF(t, findTable(t, tabs[1], "serve"), edfShared, "slo_attain")
		if !(recovered >= base) {
			t.Errorf("slo_attain: retry+shed %v, want at least no-recovery %v", recovered, base)
		}
	}},
	{"chaos/recovery-lifts-attainment", []run{chaosGrid}, func(t *testing.T, _ string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "chaos-recovery")
		base := cellF(t, tab, worstRate, "attain_base")
		recovered := cellF(t, tab, worstRate, "attain_recovery")
		if !(recovered >= base) {
			t.Errorf("attain_recovery %v, want at least attain_base %v", recovered, base)
		}
		positive(t, tab, worstRate, "goodput_recovery")
	}},
	{"obs/jsonl-sums-to-report", []run{obsJSONL}, func(t *testing.T, dir string, tabs [][]*Table) {
		tab := findTable(t, tabs[0], "serve")
		n := kinds(t, filepath.Join(dir, "ev-poisson-edf-none-shared.jsonl"))
		positive(t, tab, edfShared, "retries")
		if retries := cellF(t, tab, edfShared, "retries"); float64(n[obs.KindRetry.String()]) != retries {
			t.Errorf("log has %d retry events, report %v retries", n[obs.KindRetry.String()], retries)
		}
		if shed, logged := cellF(t, tab, edfShared, "shed"), n[obs.KindShed.String()]+n[obs.KindDegrade.String()]; float64(logged) != shed {
			t.Errorf("log has %d shed+degrade events, report %v shed", logged, shed)
		}
	}},
	{"obs/chrome-spans-pair", []run{obsChrome}, func(t *testing.T, dir string, _ [][]*Table) {
		spansPair(t, filepath.Join(dir, "ev-poisson-edf-none-shared.json"))
	}},
	{"cluster/failover-keeps-serving", []run{clusterLL}, func(t *testing.T, _ string, tabs [][]*Table) {
		positive(t, findTable(t, tabs[0], "cluster"), fair, "fail_migr", "fail_goodput")
	}},
	{"cluster/absorbs-3x-load", []run{clusterLL, clusterOne}, func(t *testing.T, _ string, tabs [][]*Table) {
		three := cellF(t, findTable(t, tabs[0], "cluster"), fair, "slo_attain")
		one := cellF(t, findTable(t, tabs[1], "cluster"), fair, "slo_attain")
		if !(three >= one) {
			t.Errorf("slo_attain: 3 least-loaded nodes %v, want at least one node's %v", three, one)
		}
	}},
	{"cluster/least-loaded-beats-hash", []run{clusterLL, clusterHash}, func(t *testing.T, _ string, tabs [][]*Table) {
		ll := cellF(t, findTable(t, tabs[0], "cluster"), fair, "slo_attain")
		hash := cellF(t, findTable(t, tabs[1], "cluster"), fair, "slo_attain")
		if !(ll > hash) {
			t.Errorf("slo_attain: least-loaded %v, want above hash %v", ll, hash)
		}
	}},
	{"cluster/detector-prices-its-lag", []run{clusterChaos}, func(t *testing.T, dir string, tabs [][]*Table) {
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
			if n[k.String()] == 0 {
				t.Errorf("chaos log has no %s event", k)
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

// kinds counts a JSONL event log's events by kind.
func kinds(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := make(map[string]int)
	for dec := json.NewDecoder(f); ; {
		var ev struct{ Kind string }
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
