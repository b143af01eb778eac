package serving

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sparsity"
)

// The tentpole acceptance test: the fused multi-RHS path must reproduce
// the per-session path bit for bit — the whole Report, every session, every
// cache statistic — across arbitration policies, seeds, and worker counts
// (run under -race this also proves the fused step phase never races the
// shared-cache commits). Rows: five DIP-CA sessions × policy × seed. Only
// the ArbShared rows fuse; under the partitioned policies every variant
// advances each session as its own decode unit, so those rows hold the unit
// fan-out to the same report across worker counts.
func TestFusedEngineMatchesPerSessionEngineBitForBit(t *testing.T) {
	trained(t)
	reqs := requests(t, 5,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(i int) int { return 2 + i%3 })
	var rows []row
	for _, arb := range Policies() {
		for _, seed := range []uint64{3, 17} {
			rows = append(rows, row{
				name: fmt.Sprintf("arb=%v seed=%d", arb, seed),
				w:    func(*testing.T) Workload { return FixedBatch(reqs) },
				cfg:  Config{System: sysCfg(), Arb: arb, MaxActive: 3, Quantum: 4, Seed: seed},
			})
		}
	}
	matrix(t, rows...)
}

// admitted builds an engine over k long DIP-CA sessions and admits every
// one straight into a slot, bypassing the run loop.
func admitted(t *testing.T, arb ArbPolicy, k, quantum int, noFuse bool) *Engine {
	t.Helper()
	e := must(NewEngine(zoo.m, Config{
		System: sysCfg(), Arb: arb, MaxActive: k, Quantum: quantum, Seed: 1, NoFuse: noFuse,
	}, FixedBatch(requests(t, k,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(int) int { return 6 }))))(t) // long enough to stay active throughout
	for i := range e.reqs {
		sess := &Session{Order: i, SessionMetrics: SessionMetrics{ID: e.reqs[i].ID, Index: i, DeadlineTick: NoDeadline}}
		if err := e.admit(sess, 0, i); err != nil {
			t.Fatal(err)
		}
		e.active = append(e.active, sess)
	}
	return e
}

// steadyDecodeAllocs fills the first window of admitted's sessions through
// the decode units Drive would fan out for them (warming every arena and
// creating every KV slot) and returns the objects one steady-state run of
// those units allocates.
func steadyDecodeAllocs(t *testing.T, arb ArbPolicy, k, quantum int, noFuse bool) float64 {
	t.Helper()
	e := admitted(t, arb, k, quantum, noFuse)
	units, err := e.openTick(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		for _, u := range units {
			u.run()
		}
	}
	for i := 0; i*quantum < zoo.m.Cfg.MaxSeq; i++ {
		decode()
	}
	allocs := testing.AllocsPerRun(5, decode)
	for _, s := range e.active {
		if s.stream.Done() {
			t.Fatal("measurement ran off the end of a stream; lengthen the requests")
		}
	}
	return allocs
}

// The fused tick's steady-state allocations: a shared-cache engine's
// decode unit reuses everything engine-side across ticks, and once a window
// has been decoded the KV caches write into the slots it created, so a
// steady-state tick allocates nothing — not the KV entries, not per-step
// logits, attention scores or batch tables. The cache simulator's
// bookkeeping is zero too: its evictable list is sized to the capacity at
// construction. NoFuse, which steps each session on its own, is held to the
// same zero. Drive's fan-out is pinned by the cluster's steady-state tick
// test; this one runs the unit on the caller.
func TestFusedTickSteadyStateAllocations(t *testing.T) {
	trained(t)
	const k, quantum = 4, 4
	for _, noFuse := range []bool{false, true} {
		if allocs := steadyDecodeAllocs(t, ArbShared, k, quantum, noFuse); allocs != 0 {
			t.Fatalf("noFuse=%v: steady-state tick of %d sessions allocates %.0f objects, want 0", noFuse, k, allocs)
		}
	}
}

// serve-overload's production path: a fair-share engine with its batch full
// (serving.batch_width_mean reads 8 there) hands Drive one decode unit per
// session, which advances through the quantum with the stream's own Step.
// Past its first window a session allocates nothing per token, under either
// partitioned policy; Quantum 8 is the engine default.
func TestLoneSessionDecodeAllocatesOnlyTheStreamStep(t *testing.T) {
	trained(t)
	for _, arb := range []ArbPolicy{ArbExclusive, ArbFairShare} {
		if allocs := steadyDecodeAllocs(t, arb, 3, 8, false); allocs != 0 {
			t.Fatalf("arb=%v: three partitioned sessions' decode units allocate %.0f objects, want 0", arb, allocs)
		}
	}
}

// frozenOne is a Control that freezes one engine and places nothing.
type frozenOne int

func (frozenOne) Before(_ int, fin []Finished) ([]Finished, error) { return fin, nil }
func (frozenOne) Place(int, int) (bool, error)                     { return false, nil }
func (f frozenOne) Frozen(n int) bool                              { return n == int(f) }
func (frozenOne) NextWake(int) (int, bool)                         { return 0, false }
func (frozenOne) Pending() int                                     { return 0 }

// The cut Drive fans out, which is what lets a cluster balance its decode
// across workers: one unit per active session of each unfrozen partitioned
// engine, in slot order, one unit per busy shared-cache engine, and none for
// a frozen or idle engine, in engine order.
func TestTickFansOutSessionsAndSharedEngines(t *testing.T) {
	trained(t)
	reqs := requests(t, 3,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(int) int { return 2 })
	nodes := []struct {
		arb       ArbPolicy
		arrivals  int
		wantUnits int
	}{
		{ArbExclusive, 3, 3},
		{ArbShared, 3, 1},
		{ArbFairShare, 0, 0}, // idle
		{ArbFairShare, 2, 0}, // frozen below
		{ArbShared, 0, 0},    // idle
		{ArbFairShare, 2, 2},
	}
	const frozen = 3
	engines := make([]*Engine, len(nodes))
	var want []unit
	for n, nd := range nodes {
		e := must(NewEngine(zoo.m, Config{System: sysCfg(), Arb: nd.arb, MaxActive: 3, Seed: 1}, FixedBatch(reqs)))(t)
		if err := e.begin(); err != nil {
			t.Fatal(err)
		}
		for i := range nd.arrivals {
			e.Inject(i, 0, i)
		}
		engines[n] = e
	}
	units, err := openAll(0, engines, frozenOne(frozen), nil)
	if err != nil {
		t.Fatal(err)
	}
	for n, nd := range nodes {
		e := engines[n]
		if nd.arb == ArbShared && nd.wantUnits == 1 {
			want = append(want, unit{e: e})
		} else if nd.arb != ArbShared {
			for _, s := range e.active[:nd.wantUnits] {
				want = append(want, unit{e: e, sess: s})
			}
		}
		if got := len(e.active); n != frozen && got != nd.arrivals {
			t.Fatalf("engine %d admitted %d of %d arrivals", n, got, nd.arrivals)
		}
	}
	if len(engines[frozen].active) != 0 || len(engines[frozen].queue) != nodes[frozen].arrivals {
		t.Fatalf("the frozen engine admitted work: %d active, %d queued", len(engines[frozen].active), len(engines[frozen].queue))
	}
	if !slices.Equal(units, want) {
		t.Fatalf("decode units %v, want %v", units, want)
	}
}
