package faults

import (
	"strings"
	"testing"
)

// Fault draws must be pure functions of (seed, tick, slot): the same plan
// queried twice — or via a second instance — answers identically, and the
// query order cannot matter. This is what lets the engine fast-forward idle
// ticks and reorder nothing.
func TestPlanDrawsAreStateless(t *testing.T) {
	p1, err := Mix(0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Mix(0.3, 42)
	// Query p1 forward and p2 backward; answers must agree pointwise.
	type key struct{ tick, slot int }
	ans := map[key][4]bool{}
	for tick := 0; tick < 64; tick++ {
		for slot := 0; slot < 4; slot++ {
			ans[key{tick, slot}] = [4]bool{
				p1.StepFault(tick, slot), p1.Revoke(tick, slot),
				p1.Cancel(tick, slot), p1.Offline(tick) > 0,
			}
		}
	}
	for tick := 63; tick >= 0; tick-- {
		for slot := 3; slot >= 0; slot-- {
			got := [4]bool{
				p2.StepFault(tick, slot), p2.Revoke(tick, slot),
				p2.Cancel(tick, slot), p2.Offline(tick) > 0,
			}
			if got != ans[key{tick, slot}] {
				t.Fatalf("draws at (%d,%d) depend on query order: %v vs %v", tick, slot, got, ans[key{tick, slot}])
			}
		}
	}
}

// Different seeds, kinds, ticks, and slots must decorrelate, and the
// empirical rate over a long horizon must track the configured one.
func TestPlanRatesAndIndependence(t *testing.T) {
	p, err := Mix(0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const n = 20000
	for tick := 0; tick < n/4; tick++ {
		for slot := 0; slot < 4; slot++ {
			if p.StepFault(tick, slot) {
				hits++
			}
		}
	}
	rate := float64(hits) / n
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("empirical step-fault rate %.3f far from configured 0.25", rate)
	}
	// A different seed must give a different schedule.
	q, _ := Mix(0.25, 8)
	same := 0
	for tick := 0; tick < 1000; tick++ {
		if p.StepFault(tick, 0) == q.StepFault(tick, 0) {
			same++
		}
	}
	if same > 950 {
		t.Fatalf("seeds 7 and 8 agree on %d/1000 draws — draws are not seed-sensitive", same)
	}
	// Zero rates never fire.
	z, _ := Mix(0, 7)
	for tick := 0; tick < 100; tick++ {
		if z.StepFault(tick, 0) || z.Revoke(tick, 0) || z.Cancel(tick, 0) || z.Offline(tick) != 0 {
			t.Fatalf("zero-rate plan fired at tick %d", tick)
		}
	}
}

// The seeds, rates and horizon the inline oracles below check Mix over.
var (
	oracleSeeds = []uint64{3, 7, 99}
	oracleRates = []float64{0.05, 0.3}
)

const oracleTicks = 2000

// Mix's slot decisions against their rates, drawn inline: step faults at
// rate, revocations at rate/2, cancellations at rate/4. The chaos tables and
// event logs are pinned on exactly these draws.
func TestMixSlotFaultsMatchTheirRates(t *testing.T) {
	for _, rate := range oracleRates {
		for _, seed := range oracleSeeds {
			p, err := Mix(rate, seed)
			if err != nil {
				t.Fatal(err)
			}
			var fired [3]bool
			for tick := 0; tick <= oracleTicks; tick++ {
				for slot := 0; slot < 4; slot++ {
					got := [3]bool{p.StepFault(tick, slot), p.Revoke(tick, slot), p.Cancel(tick, slot)}
					want := [3]bool{
						draw(seed, Step, tick, slot) < rate,
						draw(seed, Revoke, tick, slot) < rate/2,
						draw(seed, Cancel, tick, slot) < rate/4,
					}
					if got != want {
						t.Fatalf("rate %v seed %d (%d,%d): step/revoke/cancel %v, want %v", rate, seed, tick, slot, got, want)
					}
					for k, f := range got {
						fired[k] = fired[k] || f
					}
				}
			}
			if fired != [3]bool{true, true, true} {
				t.Fatalf("rate %v seed %d: a decision never fired: %v", rate, seed, fired)
			}
		}
	}
}

// A dip starts wherever the dip draw is below rate/2 and covers exactly
// [s, s+4) at one slot deep.
func TestPlanDipWindow(t *testing.T) {
	for _, rate := range oracleRates {
		for _, seed := range oracleSeeds {
			p, err := Mix(rate, seed)
			if err != nil {
				t.Fatal(err)
			}
			dipped := false
			for tick := 0; tick <= oracleTicks; tick++ {
				want := 0
				for s := tick - 3; s <= tick; s++ {
					if s >= 0 && draw(seed, Dip, s, 0) < rate/2 {
						want = 1
					}
				}
				if got := p.Offline(tick); got != want {
					t.Fatalf("rate %v seed %d tick %d: offline %d, want %d", rate, seed, tick, got, want)
				}
				dipped = dipped || want > 0
			}
			if !dipped {
				t.Fatalf("rate %v seed %d: no dip drawn", rate, seed)
			}
		}
	}
}

// Mix validates its one rate, which sets all four: each must be a
// probability.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		rate float64
		ok   bool
	}{
		{"zero value", 0, true},
		{"full rates", 1, true},
		{"negative step rate", -0.1, false},
		{"step rate above one", 1.1, false},
		{"NaN revoke rate", nan(), false},
		{"negative cancel rate", -1, false},
		{"dip rate above one", 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Mix(tc.rate, 1)
			if tc.ok != (err == nil) {
				t.Fatalf("Mix(%v): error %v, want ok=%v", tc.rate, err, tc.ok)
			}
			if err != nil && !strings.Contains(err.Error(), "rate") {
				t.Fatalf("error %v does not name the rate", err)
			}
		})
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestScriptedEvents(t *testing.T) {
	s, err := Scripted(
		Event{Tick: 3, Kind: Step, Slot: 1},
		Event{Tick: 5, Kind: Revoke, Slot: 0},
		Event{Tick: 5, Kind: Cancel, Slot: 2},
		Event{Tick: 8, Kind: Dip, Slots: 2, Ticks: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !s.StepFault(3, 1) || s.StepFault(3, 0) || s.StepFault(4, 1) {
		t.Fatal("scripted step fault fired at the wrong (tick, slot)")
	}
	if !s.Revoke(5, 0) || !s.Cancel(5, 2) || s.Revoke(5, 2) || s.Cancel(5, 0) {
		t.Fatal("scripted revoke/cancel fired at the wrong (tick, slot)")
	}
	for tick, want := range map[int]int{7: 0, 8: 2, 9: 2, 10: 2, 11: 0} {
		if got := s.Offline(tick); got != want {
			t.Fatalf("Offline(%d) = %d, want %d", tick, got, want)
		}
	}
	for _, bad := range [][]Event{
		{{Tick: -1, Kind: Step}},
		{{Tick: 0, Kind: Kind(9)}},
		{{Tick: 0, Kind: Step, Slot: -1}},
		{{Tick: 0, Kind: Dip, Slots: -1}},
	} {
		if _, err := Scripted(bad...); err == nil {
			t.Fatalf("Scripted accepted invalid event %+v", bad[0])
		}
	}
}

func TestRetryPolicy(t *testing.T) {
	if d := (RetryPolicy{}).WithDefaults(); d.MaxAttempts != 3 {
		t.Fatalf("unexpected default: %+v", d)
	}
	if err := (RetryPolicy{MaxAttempts: -1}).Validate(); err == nil || !strings.Contains(err.Error(), "MaxAttempts") {
		t.Fatalf("error %v does not name MaxAttempts", err)
	}
	// Backoff is the exponential base min(2·2^(a−1), 16) plus a jitter in
	// [0, 2), deterministic in (seed, index, attempt).
	var p RetryPolicy
	for attempt := 1; attempt <= 8; attempt++ {
		base := min(2<<(attempt-1), 16)
		for idx := 0; idx < 16; idx++ {
			b := p.Backoff(11, idx, attempt)
			if b != p.Backoff(11, idx, attempt) {
				t.Fatal("Backoff is not deterministic")
			}
			if b < base || b >= base+2 {
				t.Fatalf("attempt %d index %d: backoff %d outside [%d, %d)", attempt, idx, b, base, base+2)
			}
		}
	}
	// Different sessions jitter apart at least somewhere in a small range.
	varies := false
	for idx := 1; idx < 16 && !varies; idx++ {
		varies = p.Backoff(11, idx, 1) != p.Backoff(11, 0, 1)
	}
	if !varies {
		t.Fatal("backoff jitter never separates sessions")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Step: "step", Revoke: "revoke", Cancel: "cancel", Dip: "dip", Crash: "crash", Kind(9): "invalid"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// The kind's number is hashed into every draw: renumbering one reseeds every
// fault schedule and moves every seeded golden.
func TestKindNumbersArePinned(t *testing.T) {
	if got := [...]Kind{Step, Revoke, Cancel, Dip, Crash}; got != [...]Kind{0, 1, 2, 3, 4} {
		t.Fatalf("fault kinds renumbered: %v", got)
	}
}
