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

// steadyDecodeAllocs warms the arenas and KV capacity of admitted's batch
// and returns the objects one steady-state decode of it allocates.
func steadyDecodeAllocs(t *testing.T, k, quantum int, noFuse bool) float64 {
	t.Helper()
	e, active := admitted(t, k, quantum, noFuse)
	for i := 0; i < 3; i++ {
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
// reused across ticks, so the only per-tick allocations are the KV-cache
// entries every decoder inherently appends (two per layer per stream per
// token) plus whatever the cache simulator's eviction bookkeeping needs.
// The budget below is deliberately tight — a regression that reintroduces
// per-tick scratch (per-step logits, attention scores, batch tables, a
// batch-side copy of a scheme's buffers) blows straight past it. The count
// moves with worker-pool hand-offs, so it is taken at one worker.
func TestFusedTickSteadyStateAllocations(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	const k, quantum = 4, 4
	allocs := steadyDecodeAllocs(t, k, quantum, false)
	kvBudget := float64(quantum * k * len(zoo.m.Blocks) * 2)
	// Measured at one worker: 96 objects per fused tick against a KV floor of
	// 64 and 100 with NoFuse (120 fused at two workers). The slack
	// over the floor is KV slice regrowth and cache-policy bookkeeping; the
	// 112 the tick measured while DIP had its own batch path, which
	// reallocated a score buffer twice per layer per step, is over budget.
	budget := kvBudget * 1.6
	if allocs > budget {
		t.Fatalf("fused steady-state tick allocates %.0f objects, budget %.0f (KV floor %.0f)",
			allocs, budget, kvBudget)
	}

	// The same workload with NoFuse steps each session on its own, which
	// allocates its own embedding copy and logits per session step on top of
	// the KV floor (its attention scratch is the decoder's), so the fused
	// tick must not allocate more.
	if unfused := steadyDecodeAllocs(t, k, quantum, true); allocs > unfused {
		t.Fatalf("fused tick allocates %.0f objects, unfused %.0f — fusion no longer pays its way", allocs, unfused)
	}
}

// serve-overload's production path: at open-loop load the batch is mostly a
// lone session, which decode advances through the stream's own Step with an
// inline, allocation-free worker-pool dispatch. The engine must add nothing
// to what that Step allocates per token — the two KV entries per layer plus
// its embedding copy and logits — fused or not. Quantum 8 is the engine
// default; the three warm-up ticks and AllocsPerRun's own warm-up call fill
// the first 32-token window, so the KV slices have reached their capacity.
func TestLoneSessionDecodeAllocatesOnlyTheStreamStep(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	const quantum = 8
	kvFloor := quantum * len(zoo.m.Blocks) * 2
	budget := float64(kvFloor + 2*quantum)
	for _, noFuse := range []bool{false, true} {
		if allocs := steadyDecodeAllocs(t, 1, quantum, noFuse); allocs > budget {
			t.Fatalf("noFuse=%v: one-session decode allocates %.0f objects, budget %.0f (KV floor %d)",
				noFuse, allocs, budget, kvFloor)
		}
	}
}
