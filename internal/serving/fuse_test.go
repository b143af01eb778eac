package serving

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sparsity"
)

// The tentpole acceptance test: the fused multi-RHS path must reproduce
// the per-session path bit for bit — the whole Report, every session, every
// cache statistic — across arbitration policies, seeds, and worker counts
// (run under -race this also proves the fused step phase never races the
// shared-cache commits). Rows: five DIP-CA sessions × policy × seed.
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

// admitted builds a shared-cache engine over k long DIP-CA sessions and
// admits every one straight into a slot, bypassing the run loop.
func admitted(t *testing.T, k, quantum int, noFuse bool) (*Engine, []*Session) {
	t.Helper()
	e := must(NewEngine(zoo.m, Config{
		System: sysCfg(), Arb: ArbShared, MaxActive: k, Quantum: quantum, Seed: 1, NoFuse: noFuse,
	}, FixedBatch(requests(t, k,
		func(int) sparsity.Scheme { return sparsity.NewDIPCA(0.5, 0.2) },
		func(int) int { return 6 }))))(t) // long enough to stay active throughout
	active := make([]*Session, 0, k)
	for i := range e.reqs {
		sess := &Session{ID: e.reqs[i].ID, Index: i, ArriveTick: 0, Order: i, Deadline: NoDeadline}
		if err := e.admit(sess, 0, i); err != nil {
			t.Fatal(err)
		}
		active = append(active, sess)
	}
	return e, active
}

// steadyDecodeAllocs warms the arenas of admitted's batch and fills the
// first window, so every KV slot exists, and returns the objects one
// steady-state decode of it allocates.
func steadyDecodeAllocs(t *testing.T, k, quantum int, noFuse bool) float64 {
	t.Helper()
	e, active := admitted(t, k, quantum, noFuse)
	for i := 0; i*quantum < zoo.m.Cfg.MaxSeq; i++ {
		e.decode(active)
	}
	allocs := testing.AllocsPerRun(5, func() { e.decode(active) })
	for _, s := range active {
		if s.stream.Done() {
			t.Fatal("measurement ran off the end of a stream; lengthen the requests")
		}
	}
	return allocs
}

// The fused tick's steady-state allocations: everything engine-side is
// reused across ticks, and once a window has been decoded the KV caches
// write into the slots it created, so a steady-state tick allocates
// nothing — not the KV entries, not per-step logits, attention scores,
// batch tables or fan-out closures. The cache simulator's bookkeeping is
// zero too: its eviction heap is sized to the capacity at construction. The
// count moves with worker-pool hand-offs, so it is taken at one worker;
// NoFuse, which steps each session on its own, is held to the same zero.
func TestFusedTickSteadyStateAllocations(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	const k, quantum = 4, 4
	for _, noFuse := range []bool{false, true} {
		if allocs := steadyDecodeAllocs(t, k, quantum, noFuse); allocs != 0 {
			t.Fatalf("noFuse=%v: steady-state tick of %d sessions allocates %.0f objects, want 0", noFuse, k, allocs)
		}
	}
}

// serve-overload's production path: at open-loop load the batch is mostly a
// lone session, which decode advances through the stream's own Step with an
// inline, allocation-free worker-pool dispatch. Past its first window the
// session allocates nothing per token, fused or not; Quantum 8 is the
// engine default.
func TestLoneSessionDecodeAllocatesOnlyTheStreamStep(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	for _, noFuse := range []bool{false, true} {
		if allocs := steadyDecodeAllocs(t, 1, 8, noFuse); allocs != 0 {
			t.Fatalf("noFuse=%v: one-session decode allocates %.0f objects, want 0", noFuse, allocs)
		}
	}
}
