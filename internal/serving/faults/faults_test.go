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
	p, err := New(Config{Seed: 7, StepRate: 0.25})
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
	q, _ := New(Config{Seed: 8, StepRate: 0.25})
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
	z, _ := New(Config{Seed: 7})
	for tick := 0; tick < 100; tick++ {
		if z.StepFault(tick, 0) || z.Revoke(tick, 0) || z.Cancel(tick, 0) || z.Offline(tick) != 0 {
			t.Fatalf("zero-rate plan fired at tick %d", tick)
		}
	}
}

// A dip drawn at tick s must cover exactly [s, s+DipTicks) at DipSlots deep.
func TestPlanDipWindow(t *testing.T) {
	p, err := New(Config{Seed: 3, DipRate: 0.05, DipSlots: 2, DipTicks: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Find a tick where a dip starts (the draw itself, not the window).
	start := -1
	for tick := 0; tick < 500; tick++ {
		if draw(3, Dip, tick, 0) < 0.05 {
			start = tick
			break
		}
	}
	if start < 0 {
		t.Fatal("no dip drawn in 500 ticks at rate 0.05")
	}
	for off := 0; off < 3; off++ {
		if got := p.Offline(start + off); got != 2 {
			t.Fatalf("tick %d (dip started %d): offline %d, want 2", start+off, start, got)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = valid
	}{
		{"zero value", Config{}, ""},
		{"full rates", Config{StepRate: 1, RevokeRate: 1, CancelRate: 1, DipRate: 1}, ""},
		{"negative step rate", Config{StepRate: -0.1}, "StepRate"},
		{"step rate above one", Config{StepRate: 1.1}, "StepRate"},
		{"NaN revoke rate", Config{RevokeRate: nan()}, "RevokeRate"},
		{"negative cancel rate", Config{CancelRate: -1}, "CancelRate"},
		{"dip rate above one", Config{DipRate: 2}, "DipRate"},
		{"negative dip slots", Config{DipSlots: -1}, "DipSlots"},
		{"negative dip ticks", Config{DipTicks: -2}, "DipTicks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not name %q", err, tc.want)
			}
		})
	}
	if _, err := Mix(-0.5, 1); err == nil {
		t.Fatal("Mix accepted a negative rate")
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
	// Defaults resolve as documented.
	d := RetryPolicy{}.WithDefaults()
	if d.MaxAttempts != 3 || d.BackoffBase != 2 || d.BackoffMax != 16 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	// Negative fields are named errors.
	for _, tc := range []struct {
		p    RetryPolicy
		want string
	}{
		{RetryPolicy{MaxAttempts: -1}, "MaxAttempts"},
		{RetryPolicy{BackoffBase: -1}, "BackoffBase"},
		{RetryPolicy{BackoffMax: -1}, "BackoffMax"},
	} {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("error %v does not name %q", err, tc.want)
		}
	}
	// Backoff grows exponentially up to the cap, stays ≥ 1, and is
	// deterministic in (seed, index, attempt).
	p := RetryPolicy{MaxAttempts: 5, BackoffBase: 2, BackoffMax: 8}
	prevBase := 0
	for attempt := 1; attempt <= 5; attempt++ {
		b := p.Backoff(11, 0, attempt)
		if b != p.Backoff(11, 0, attempt) {
			t.Fatal("Backoff is not deterministic")
		}
		if b < 1 {
			t.Fatalf("attempt %d: backoff %d < 1", attempt, b)
		}
		if b > p.BackoffMax+p.BackoffBase {
			t.Fatalf("attempt %d: backoff %d above cap+jitter %d", attempt, b, p.BackoffMax+p.BackoffBase)
		}
		base := p.BackoffBase << (attempt - 1)
		if base > p.BackoffMax {
			base = p.BackoffMax
		}
		if base < prevBase {
			t.Fatal("exponential base shrank")
		}
		prevBase = base
		if b < base {
			t.Fatalf("attempt %d: backoff %d below exponential base %d", attempt, b, base)
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
	// Minimum-delay policy: base 1 has no jitter room but still delays.
	one := RetryPolicy{MaxAttempts: 2, BackoffBase: 1, BackoffMax: 1}
	if got := one.Backoff(1, 0, 1); got != 1 {
		t.Fatalf("base-1 backoff = %d, want exactly 1", got)
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
