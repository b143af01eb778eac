package cluster

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/parallel"
	"repro/internal/serving"
	"repro/internal/serving/obs"
)

// The differential harness, cluster side: every cluster determinism suite
// is a list of rows run through one fixed variant matrix — the serving
// harness's, plus the bare serving.Engine for a one-node row, which must be
// indistinguishable from the cluster wrapping it. Run under -race, every row
// also proves the parallel decode fan-out never races the serial control
// plane.

// row is one scenario: a cluster config (the matrix sets each node's NoFuse
// and the cluster's Obs), a workload factory (a Workload is single-use, so
// each variant builds its own), and the guard that fails when the scenario
// no longer exercises what its suite is about, run on the reference outcome.
type row struct {
	name  string
	cfg   Config
	w     func(t *testing.T) serving.Workload
	guard func(t *testing.T, o outcome)
}

// variant is one way of running a row that must not change its outcome;
// bare runs a one-node row's node config as a lone engine.
type variant struct {
	name                string
	procs               int
	noFuse, noObs, bare bool
}

// variants is the matrix; the first is the reference the others are held to.
var variants = []variant{
	{name: "procs 4 fused", procs: 4},
	{name: "procs 4 NoFuse", procs: 4, noFuse: true},
	{name: "procs 1 fused", procs: 1},
	{name: "recorder off", procs: 4, noObs: true},
	{name: "bare engine", procs: 4, bare: true},
}

// outcome is what one run produced: the report with its Wall annotations
// zeroed (the bare engine's wrapped as node 0), the merged JSONL event log
// (nil with the recorder off), and under ArbShared every node's shared-cache
// end state.
type outcome struct {
	rep    *Report
	log    []byte
	caches []cacheState
}

type cacheState struct {
	stats cache.Stats
	occ   int
}

// matrix runs each row, as a subtest, under every variant that applies to
// it: it checks the end-of-run invariants and ReconcileObs on each run (drain
// does both for a cluster), holds each variant to the reference with
// assertSame, then runs the row's guard.
func matrix(t *testing.T, rows ...row) {
	defer parallel.SetProcs(parallel.Procs())
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var ref outcome
			for i, v := range variants {
				if v.bare && len(r.cfg.Nodes) != 1 {
					continue
				}
				parallel.SetProcs(v.procs)
				got := runVariant(t, r, v)
				if i == 0 {
					ref = got
				} else {
					assertSame(t, v, ref, got)
				}
			}
			if r.guard != nil {
				r.guard(t, ref)
			}
		})
	}
}

func runVariant(t *testing.T, r row, v variant) outcome {
	t.Helper()
	cfg, w := r.cfg, r.w(t)
	cfg.Nodes = append([]serving.Config(nil), r.cfg.Nodes...)
	for i := range cfg.Nodes {
		cfg.Nodes[i].NoFuse = v.noFuse
	}
	if !v.noObs {
		cfg.Obs = &obs.Config{Window: 8}
	}
	var o outcome
	var events []obs.Event
	var engines []*serving.Engine
	if v.bare {
		rec := obs.NewRecorder(*cfg.Obs)
		cfg.Nodes[0].Obs = rec
		e := must(serving.NewEngine(zoo.m, cfg.Nodes[0], w))(t)
		rep := must(e.Run())(t)
		if err := rep.ReconcileObs(); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		o.rep = &Report{Report: *serving.Merge(rep), Sessions: len(rep.Sessions), Nodes: []NodeReport{{Report: rep}}}
		checkInvariants(t, v.name, w.Requests(), o.rep)
		events, engines = rec.Events(), []*serving.Engine{e}
	} else {
		var c *Cluster
		c, o.rep = drain(t, v.name, cfg, w)
		events, engines = c.Events(), c.nodes
	}
	stripWall(o.rep)
	if cfg.Obs != nil {
		o.log = jsonl(t, events)
	}
	for _, e := range engines {
		if sc := e.SharedCache(); sc != nil {
			o.caches = append(o.caches, cacheState{sc.TotalStats(), sc.Occupancy()})
		}
	}
	return o
}

// assertSame holds a variant to the reference: the report under
// reflect.DeepEqual (node 0's alone for the bare engine; an unobserved
// variant borrows the reference's event counts and snapshots), the merged
// event log byte for byte, and every shared cache's statistics and
// occupancy.
func assertSame(t *testing.T, v variant, want, got outcome) {
	t.Helper()
	wantRep, gotRep := any(want.rep), any(got.rep)
	switch {
	case v.bare:
		wantRep, gotRep = want.rep.Nodes[0].Report, got.rep.Nodes[0].Report
	case v.noObs:
		got.rep.Counts = want.rep.Counts
		for i, nr := range got.rep.Nodes {
			nr.Report.Obs = want.rep.Nodes[i].Report.Obs
		}
	}
	if !reflect.DeepEqual(wantRep, gotRep) {
		t.Fatalf("%s: report diverged from the reference:\nwant %+v\ngot  %+v", v.name, wantRep, gotRep)
	}
	if got.log != nil && !bytes.Equal(want.log, got.log) {
		t.Fatalf("%s: event log diverged from the reference", v.name)
	}
	if !reflect.DeepEqual(want.caches, got.caches) {
		t.Fatalf("%s: shared caches diverged: %+v vs %+v", v.name, got.caches, want.caches)
	}
}

// checkInvariants holds what every drained run obeys whatever its scenario:
// each request is reported exactly once across all nodes with a terminal
// outcome, an OK session decoded every whole window of its stream, and each
// node's and the cluster's GoodTokens are their OK sessions' Tokens.
func checkInvariants(t *testing.T, variant string, reqs []serving.Request, rep *Report) {
	t.Helper()
	seen := make([]int, len(reqs))
	good := 0
	for n, nr := range rep.Nodes {
		nodeGood := 0
		for _, sm := range nr.Report.Sessions {
			seen[sm.Index]++
			switch sm.Outcome {
			case serving.OutcomeOK:
				if win := zoo.m.Cfg.MaxSeq; sm.Tokens != len(reqs[sm.Index].Tokens)/win*win {
					t.Fatalf("%s: OK session %q decoded %d of %d tokens", variant, sm.ID, sm.Tokens, len(reqs[sm.Index].Tokens))
				}
				nodeGood += sm.Tokens
			case serving.OutcomeFailed, serving.OutcomeCancelled, serving.OutcomeShed:
			default:
				t.Fatalf("%s: session %q has no terminal outcome: %q", variant, sm.ID, sm.Outcome)
			}
		}
		if nr.Report.GoodTokens != nodeGood {
			t.Fatalf("%s: node %d GoodTokens %d, its OK sessions decoded %d", variant, n, nr.Report.GoodTokens, nodeGood)
		}
		good += nodeGood
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("%s: request %d (%q) reported %d times across the nodes", variant, i, reqs[i].ID, n)
		}
	}
	if rep.Sessions != len(reqs) {
		t.Fatalf("%s: Sessions %d, want %d", variant, rep.Sessions, len(reqs))
	}
	if rep.GoodTokens != good {
		t.Fatalf("%s: GoodTokens %d, OK sessions decoded %d", variant, rep.GoodTokens, good)
	}
}

// must unwraps a constructor's (value, error), failing the test on the
// error: must(New(m, cfg, w))(t).
func must[T any](v T, err error) func(*testing.T) T {
	return func(t *testing.T) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// drain builds a cluster over w and runs it to the end, failing the test,
// prefixed with what, on any error, on a broken end-of-run invariant and,
// with Obs set, on a ReconcileObs mismatch or a broken merged log.
func drain(t *testing.T, what string, cfg Config, w serving.Workload) (*Cluster, *Report) {
	t.Helper()
	c := must(New(zoo.m, cfg, w))(t)
	rep := must(c.Run())(t)
	checkInvariants(t, what, w.Requests(), rep)
	if cfg.Obs != nil {
		if err := rep.ReconcileObs(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		checkMerge(t, what, c)
	}
	return c, rep
}

// checkMerge holds the merged event log to its precondition and its
// definition: every node's log is non-decreasing in Tick, and Events() is
// the stable sort of the node-stamped concatenation by (Tick, node).
func checkMerge(t *testing.T, what string, c *Cluster) {
	t.Helper()
	var want []obs.Event
	for n, r := range c.recs {
		log := r.Events()
		for i, ev := range log {
			if i > 0 && ev.Tick < log[i-1].Tick {
				t.Fatalf("%s: node %d's event %d is at tick %d, after tick %d", what, n, i, ev.Tick, log[i-1].Tick)
			}
			ev.Node = n
			want = append(want, ev)
		}
	}
	slices.SortStableFunc(want, func(a, b obs.Event) int { return cmp.Compare(a.Tick, b.Tick) })
	if !slices.Equal(c.Events(), want) {
		t.Fatalf("%s: merged event log is not the stable sort of the node logs by (tick, node)", what)
	}
}

// run is drain for a caller that needs only the report.
func run(t *testing.T, cfg Config, w serving.Workload) *Report {
	t.Helper()
	_, rep := drain(t, "run", cfg, w)
	return rep
}

// stripWall zeroes the host-measured annotations — the only fields outside
// the determinism contract.
func stripWall(rep *Report) {
	rep.Wall = serving.WallClock{}
	for i := range rep.Nodes {
		rep.Nodes[i].Report.Wall = serving.WallClock{}
	}
}

func jsonl(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
