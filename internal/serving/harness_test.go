package serving

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/parallel"
	"repro/internal/serving/obs"
)

// The differential harness. Every determinism suite in this package is a
// list of rows run through one fixed variant matrix: a row's outcome must
// not depend on the worker count, on fused or per-session decode, or on
// whether a recorder watches the run. Run under -race, every row also
// proves the parallel decode phases never race the serial loop.

// row is one scenario: an engine config (the matrix sets NoFuse and Obs), a
// workload factory (a Workload is single-use, so each variant builds its
// own), and the guard that fails when the scenario no longer exercises what
// its suite is about, run on the reference outcome.
type row struct {
	name  string
	cfg   Config
	w     func(t *testing.T) Workload
	guard func(t *testing.T, o outcome)
}

// variants is the matrix; the first is the reference the others are held to.
var variants = []struct {
	name          string
	procs         int
	noFuse, noObs bool
}{
	{name: "procs 4 fused", procs: 4},
	{name: "procs 4 NoFuse", procs: 4, noFuse: true},
	{name: "procs 1 fused", procs: 1},
	{name: "recorder off", procs: 4, noObs: true},
}

// outcome is what one run produced: the report with its Wall annotation
// zeroed, the JSONL event log (nil with the recorder off), and under
// ArbShared the shared cache's end state.
type outcome struct {
	rep   *Report
	log   []byte
	stats cache.Stats
	occ   int
}

// matrix runs each row, as a subtest, under every variant: it checks the
// end-of-run invariants and ReconcileObs on each run, holds each variant to
// the reference with assertSame, then runs the row's guard.
func matrix(t *testing.T, rows ...row) {
	defer parallel.SetProcs(parallel.Procs())
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var ref outcome
			for i, v := range variants {
				parallel.SetProcs(v.procs)
				cfg, w := r.cfg, r.w(t)
				cfg.NoFuse = v.noFuse
				if !v.noObs {
					cfg.Obs = obs.NewRecorder(obs.Config{Window: 8})
				}
				e, rep := drain(t, v.name, cfg, w)
				got := outcome{rep: stripWall(rep)}
				if cfg.Obs != nil {
					got.log = jsonl(t, cfg.Obs.Events())
				}
				if e.shared != nil {
					got.stats, got.occ = e.shared.TotalStats(), e.shared.Occupancy()
				}
				if i == 0 {
					ref = got
				} else {
					assertSame(t, v.name, ref, got)
				}
			}
			if r.guard != nil {
				r.guard(t, ref)
			}
		})
	}
}

// assertSame holds a variant to the reference: the report under
// reflect.DeepEqual (an unobserved variant borrows the reference's
// snapshot), the event log byte for byte, and the shared cache's statistics
// and occupancy.
func assertSame(t *testing.T, variant string, want, got outcome) {
	t.Helper()
	if got.log == nil {
		got.rep.Obs = want.rep.Obs
	}
	if !reflect.DeepEqual(want.rep, got.rep) {
		t.Fatalf("%s: report diverged from the reference:\nwant %+v\ngot  %+v", variant, *want.rep, *got.rep)
	}
	if got.log != nil && !bytes.Equal(want.log, got.log) {
		t.Fatalf("%s: event log diverged from the reference", variant)
	}
	if got.stats != want.stats || got.occ != want.occ {
		t.Fatalf("%s: shared cache diverged: %+v/%d vs %+v/%d", variant, got.stats, got.occ, want.stats, want.occ)
	}
}

// checkInvariants holds what every drained run obeys whatever its scenario:
// each request is reported exactly once with a terminal outcome, an OK
// session decoded every whole window of its stream, and GoodTokens is the
// OK sessions' Tokens.
func checkInvariants(t *testing.T, variant string, reqs []Request, rep *Report) {
	t.Helper()
	seen := make([]int, len(reqs))
	good := 0
	for _, sm := range rep.Sessions {
		seen[sm.Index]++
		switch sm.Outcome {
		case OutcomeOK:
			if win := zoo.m.Cfg.MaxSeq; sm.Tokens != len(reqs[sm.Index].Tokens)/win*win {
				t.Fatalf("%s: OK session %q decoded %d of %d tokens", variant, sm.ID, sm.Tokens, len(reqs[sm.Index].Tokens))
			}
			good += sm.Tokens
		case OutcomeFailed, OutcomeCancelled, OutcomeShed:
		default:
			t.Fatalf("%s: session %q has no terminal outcome: %q", variant, sm.ID, sm.Outcome)
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("%s: request %d (%q) reported %d times", variant, i, reqs[i].ID, n)
		}
	}
	if rep.GoodTokens != good {
		t.Fatalf("%s: GoodTokens %d, OK sessions decoded %d", variant, rep.GoodTokens, good)
	}
}

// must unwraps a constructor's (value, error), failing the test on the
// error: must(NewEngine(m, cfg, w))(t).
func must[T any](v T, err error) func(*testing.T) T {
	return func(t *testing.T) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// drain builds an engine over w and runs it to the end, failing the test,
// prefixed with what, on any error, on a broken end-of-run invariant and,
// with a recorder attached, on a ReconcileObs mismatch.
func drain(t *testing.T, what string, cfg Config, w Workload) (*Engine, *Report) {
	t.Helper()
	e := must(NewEngine(zoo.m, cfg, w))(t)
	rep := must(e.Run())(t)
	checkInvariants(t, what, w.Requests(), rep)
	if cfg.Obs != nil {
		if err := rep.ReconcileObs(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	return e, rep
}

// run is drain for a caller that needs only the report.
func run(t *testing.T, cfg Config, w Workload) *Report {
	t.Helper()
	_, rep := drain(t, "run", cfg, w)
	return rep
}

// stripWall zeroes the host annotation, the one Report block excluded from
// the determinism contract.
func stripWall(r *Report) *Report {
	r.Wall = WallClock{}
	return r
}

func jsonl(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func trace(t *testing.T, entries ...TraceEntry) Workload {
	return must(TraceWorkload(entries, testBinder(t)))(t)
}
