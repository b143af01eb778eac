package serving

import (
	"strings"
	"testing"

	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// Keep-in-sync check: every registry entry must round-trip through its CLI
// parser — Schedulers/Preemptors/Policies are what NewEngine consumes, and
// ParseX is what dipbench feeds it, so a name in one but not the other is a
// policy users can't reach (or a flag value that explodes downstream).
func TestRegistryNamesRoundTripThroughParsers(t *testing.T) {
	for _, s := range Schedulers() {
		got, err := ParseScheduler(s.Name())
		if err != nil || got.Name() != s.Name() {
			t.Errorf("scheduler %q does not round-trip: %v", s.Name(), err)
		}
	}
	for _, p := range Preemptors() {
		got, err := ParsePreemptor(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Errorf("preemptor %q does not round-trip: %v", p.Name(), err)
		}
	}
	for _, a := range Policies() {
		got, err := ParseArbPolicy(a.String())
		if err != nil || got != a {
			t.Errorf("arbitration policy %q does not round-trip: %v", a, err)
		}
	}
	// Unknown names are errors that enumerate the alternatives.
	if _, err := ParseScheduler("nope"); err == nil || !strings.Contains(err.Error(), "edf") {
		t.Errorf("unknown scheduler error does not list known names: %v", err)
	}
	if _, err := ParsePreemptor("nope"); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("unknown preemptor error does not list known names: %v", err)
	}
	if _, err := ParseArbPolicy("nope"); err == nil || !strings.Contains(err.Error(), "fair") {
		t.Errorf("unknown arbitration error does not list known names: %v", err)
	}
	// The exporter-format registry feeds dipbench -events-format the same
	// way: every listed format must round-trip, and each must map to a
	// distinct file extension (per-cell event files disambiguate by ext).
	exts := map[string]string{}
	for _, f := range obs.FormatNames() {
		got, err := obs.ParseFormat(f)
		if err != nil || got != f {
			t.Errorf("event-log format %q does not round-trip: %v", f, err)
		}
		ext := obs.FormatExt(f)
		if prev, dup := exts[ext]; dup {
			t.Errorf("formats %q and %q share file extension %q", prev, f, ext)
		}
		exts[ext] = f
	}
	if _, err := obs.ParseFormat("nope"); err == nil || !strings.Contains(err.Error(), "jsonl") {
		t.Errorf("unknown event-log format error does not list known names: %v", err)
	}
}

// Keep-in-sync check: the suspend-cause → event-detail mapping must stay
// injective and disjoint from the cluster's migration detail — the obs
// reconcilers (single-engine and cluster) classify KindSuspend events by
// Detail string, so two causes sharing a detail, or a cause colliding with
// DetailMigrate, would silently double-count one bucket.
func TestSuspendCauseDetailsAreDistinct(t *testing.T) {
	seen := map[string]Cause{}
	for _, by := range []Cause{CausePreempt, CauseFault, CauseDip} {
		d := displacements[by].detail
		if d == "" {
			t.Errorf("suspend cause %d maps to an empty event detail", by)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("suspend causes %d and %d share event detail %q", prev, by, d)
		}
		seen[d] = by
		if d == obs.DetailMigrate {
			t.Errorf("suspend cause %d collides with the cluster migration detail %q", by, d)
		}
	}
	// A revocation is a fault to the reconcilers: both suspend under
	// DetailFault, balanced against Report.Retries.
	if d := displacements[CauseRevoke].detail; d != obs.DetailFault {
		t.Errorf("revocations suspend under %q, want %q", d, obs.DetailFault)
	}
}

// Keep-in-sync check: WorkloadNames must list exactly the Name()s the
// built-in workload constructors produce — it is the list dipbench
// validates -workload against, so an orphan on either side is a reachable
// kind users can't select or a selectable kind that doesn't exist.
func TestWorkloadNamesMatchConstructors(t *testing.T) {
	trained(t)
	one := requests(t, 1,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 1 })
	built := map[string]bool{}
	for _, w := range []Workload{
		FixedBatch(one),
		must(PoissonArrivals(one, 0.5, 1))(t),
		must(ClosedLoop([][]Request{one}, 1))(t),
		trace(t, TraceEntry{ID: "x", Tokens: 32}),
	} {
		built[w.Name()] = true
	}
	listed := map[string]bool{}
	for _, n := range WorkloadNames() {
		if listed[n] {
			t.Errorf("WorkloadNames lists %q twice", n)
		}
		listed[n] = true
		if !built[n] {
			t.Errorf("WorkloadNames lists %q but no built-in constructor produces it", n)
		}
	}
	for n := range built {
		if !listed[n] {
			t.Errorf("constructor produces workload %q missing from WorkloadNames", n)
		}
	}
}
