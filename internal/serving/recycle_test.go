package serving

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/eval"
	"repro/internal/parallel"
	"repro/internal/serving/faults"
	"repro/internal/sparsity"
)

// churnTrace is n one-window DIP-CA requests, one arriving per tick over one
// shared scheme instance (so finished sessions hand their clones on), at
// staggered offsets of the test split. Request deadlined, if non-negative,
// carries a tight deadline and is the only one that does.
func churnTrace(t *testing.T, n, deadlined int) Workload {
	shared := sparsity.NewDIPCA(0.5, 0.2)
	entries := make([]TraceEntry, n)
	for i := range entries {
		entries[i] = TraceEntry{ID: fmt.Sprintf("c%02d", i), Tick: i, Tokens: 32, Start: 40 * i}
		if i == deadlined {
			entries[i].DeadlineTicks = 6
		}
	}
	binder := TraceBinder{Corpus: zoo.tokens, Scheme: func(string) (sparsity.Scheme, error) { return shared, nil }}
	return must(TraceWorkload(entries, binder))(t)
}

// Recycling is invisible: 44 short exclusive sessions churn through two
// slots, so nearly every admission runs on the stream, decoder, scheme clone
// and cache a finished session gave back — including the ones a revoked
// session's restart and a preemption hand around. Every session must still
// match its solo SystemEvaluate, the fresh-object oracle: the whole Point,
// or for the revoked session, whose meter and traffic keep the discarded
// prefix, its quality.
func TestRecycledSessionsMatchSolo(t *testing.T) {
	trained(t)
	const n = 44
	matrix(t, row{
		name: "exclusive churn",
		w:    func(t *testing.T) Workload { return churnTrace(t, n, 30) },
		cfg: Config{
			System: sysCfg(), Arb: ArbExclusive, Preempt: DeadlinePreempt(),
			MaxActive: 2, Quantum: 8, Seed: 7,
			Faults: must(faults.Scripted(faults.Event{Tick: 21, Kind: faults.Revoke, Slot: 0}))(t),
		},
		guard: func(t *testing.T, o outcome) {
			if o.rep.Revocations != 1 || o.rep.Preemptions != 1 {
				t.Fatalf("scenario broken: %d revocations and %d preemptions, want 1 and 1", o.rep.Revocations, o.rep.Preemptions)
			}
			reqs := churnTrace(t, n, 30).Requests()
			for _, sm := range o.rep.Sessions {
				solo := must(eval.SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), reqs[sm.Index].Tokens, sysCfg()))(t)
				got, want := sm.Point, solo
				if sm.Decoded != sm.Tokens {
					got, want = eval.Point{PPL: got.PPL, Density: got.Density}, eval.Point{PPL: want.PPL, Density: want.Density}
				}
				if got != want {
					t.Fatalf("session %q diverged from its solo evaluation:\nserved %+v\nsolo   %+v", sm.ID, sm.Point, solo)
				}
			}
		},
	})
}

// A warmed one-worker engine recycles everything a session decodes with:
// each further admit → decode → terminate cycle allocates the same few
// objects — the Session record, which becomes its report row — however many
// tokens the session decodes.
func TestSessionChurnAllocatesOnlyItsReportRow(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	parallel.SetProcs(1)
	perSession := func(nWin int) float64 {
		const warm, runs = 4, 8
		shared := sparsity.NewDIPCA(0.5, 0.2)
		reqs := make([]Request, warm+runs+1)
		for i := range reqs {
			reqs[i] = Request{ID: fmt.Sprintf("r%02d", i), Scheme: shared, Tokens: zoo.tokens[40*i : 40*i+32*nWin]}
		}
		e := must(NewEngine(zoo.m, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 2, Quantum: 8, Seed: 1}, FixedBatch(reqs)))(t)
		if err := e.begin(); err != nil {
			t.Fatal(err)
		}
		tick, next := 0, 0
		cycle := func() {
			idx := next
			next++
			e.Inject(idx, tick, idx)
			for e.sessions[idx].state != Done {
				if _, _, err := e.stepTick(tick); err != nil {
					t.Fatal(err)
				}
				tick++
			}
		}
		for i := 0; i < warm; i++ {
			cycle()
		}
		return testing.AllocsPerRun(runs, cycle)
	}
	short, long := perSession(1), perSession(3)
	if short != 1 || long != 1 {
		t.Fatalf("a recycled session allocates %v objects over one window and %v over three, want 1 (its Session record)", short, long)
	}
}

// The latency percentiles are per-token figures, so a session that decoded
// nothing has none to give: two fair-share requests shorter than one window
// finish OK with nothing decoded, and must not drag SimLatencyP50 to 0.
func TestSimLatencyPercentilesCountOnlySessionsThatDecoded(t *testing.T) {
	trained(t)
	reqs := requests(t, 3,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 2 })
	reqs[1].Tokens, reqs[2].Tokens = reqs[1].Tokens[:20], reqs[2].Tokens[:20]
	rep := run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 3, Quantum: 8, Seed: 1}, FixedBatch(reqs))
	lat := rep.Sessions[0].Point.LatencyS
	if lat <= 0 || rep.Sessions[1].Decoded != 0 || rep.Sessions[2].Decoded != 0 {
		t.Fatalf("scenario broken: sessions decoded %d/%d/%d, latency %v",
			rep.Sessions[0].Decoded, rep.Sessions[1].Decoded, rep.Sessions[2].Decoded, lat)
	}
	if rep.SimLatencyP50 != lat || rep.SimLatencyP99 != lat {
		t.Fatalf("latency percentiles %v/%v, want both %v (the one session that decoded)",
			rep.SimLatencyP50, rep.SimLatencyP99, lat)
	}
}

// Finalize folds the report without copying rows it does not keep: the
// report's one slice of rows, one float buffer every percentile series is
// sorted in, and a constant rest. Over 100 and 1000 deadlined sessions it
// must allocate the same objects, and its bytes must stay within
// one SessionMetrics row and one float per session plus a constant: the
// fixed objects and the allocator's rounding of the two large slices (up to
// one 8 KiB page each).
func TestFinalizeAllocatesOneRowPerSession(t *testing.T) {
	trained(t)
	classes := []string{"", "batch", "interactive"}
	row := float64(unsafe.Sizeof(SessionMetrics{}) + unsafe.Sizeof(float64(0)))
	const slack = 20 << 10
	finalize := func(n int) (objs, bytes float64) {
		reqs := make([]Request, n)
		for i := range reqs {
			tokens := zoo.tokens[i%64 : i%64+20] // under one window: finishes undecoded
			if i%10 == 0 {
				tokens = zoo.tokens[40*i/10 : 40*i/10+32]
			}
			reqs[i] = Request{ID: fmt.Sprintf("f%04d", i), Scheme: sparsity.Dense{}, Tokens: tokens,
				SLO: SLO{Class: classes[i%3], DeadlineTicks: 1 + i%40}}
		}
		e, rep := drain(t, "finalize", Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 8, Quantum: 8, Seed: 1}, FixedBatch(reqs))
		if rep.SLOAttainRate >= 1 || rep.SimLatencyP99 == 0 {
			t.Fatalf("scenario broken: attainment %v (no deadline missed), p99 latency %v", rep.SLOAttainRate, rep.SimLatencyP99)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			e.Finalize(rep.Ticks)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	objs100, bytes100 := finalize(100)
	objs1000, bytes1000 := finalize(1000)
	t.Logf("100 sessions: %v objects, %v B; 1000 sessions: %v objects, %v B; row %v B", objs100, bytes100, objs1000, bytes1000, row)
	if objs100 != objs1000 {
		t.Errorf("Finalize allocates %v objects over 100 sessions and %v over 1000, want equal", objs100, objs1000)
	}
	for _, c := range []struct{ n, bytes float64 }{{100, bytes100}, {1000, bytes1000}} {
		if limit := c.n*row + slack; c.bytes > limit {
			t.Errorf("Finalize over %v sessions allocates %v B, want ≤ %v (one row and one float per session + %d B)", c.n, c.bytes, limit, slack)
		}
	}
}
