package serving

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/eval"
)

// A merge of one report is that report's figures: the rows are read in
// place and recomputed to the same percentiles, so only the rows and the
// observer snapshot, which a merge never carries, differ. A one-node
// cluster's rollup is therefore its engine's report by construction.
func TestMergeOfOneReportKeepsItsFigures(t *testing.T) {
	trained(t)
	for _, arb := range []ArbPolicy{ArbShared, ArbFairShare} {
		rep := run(t, Config{System: sysCfg(), Arb: arb, Sched: EDF(), MaxActive: 2, Quantum: 8, Seed: 3},
			must(PoissonArrivals(classMix(t, 6, 8, 2), 0.5, 9))(t))
		want := *rep
		want.Sessions, want.Obs = nil, nil
		if got := Merge(rep); !reflect.DeepEqual(*got, want) {
			t.Fatalf("%v: Merge of one report changed its figures:\nwant %+v\ngot  %+v", arb, want, *got)
		}
	}
}

// Merge's rule over several reports: counters, token totals and rates add,
// the hit rate and mean recovery come from the summed raw totals, and the
// percentiles and attainment come from every input's rows at once.
func TestMergeAddsCountersAndRecomputesFromRows(t *testing.T) {
	a := synthReport(1, 4)
	b := synthReport(2, 6)
	m := Merge(a, b)
	if m.Sessions != nil || m.Obs != nil {
		t.Fatalf("a merged report holds rows or a snapshot: %d rows, obs %v", len(m.Sessions), m.Obs)
	}
	if m.TotalTokens != a.TotalTokens+b.TotalTokens || m.Retries != a.Retries+b.Retries ||
		m.SimTokS != a.SimTokS+b.SimTokS || m.Goodput != a.Goodput+b.Goodput {
		t.Fatalf("totals and rates do not add: %+v", m)
	}
	if want := float64(a.CacheHits+b.CacheHits) / float64(a.CacheHits+b.CacheHits+a.CacheMisses+b.CacheMisses); m.HitRate != want {
		t.Fatalf("hit rate %v, want %v from the summed totals", m.HitRate, want)
	}
	if want := float64(a.recoverTicks+b.recoverTicks) / float64(a.recoveries+b.recoveries); m.MeanRecoverTicks != want {
		t.Fatalf("mean recovery %v, want %v from the summed totals", m.MeanRecoverTicks, want)
	}
	// The same rows in one report give the same percentiles.
	one := &Report{Sessions: append(append([]SessionMetrics(nil), a.Sessions...), b.Sessions...)}
	one.derive(nil, one.Sessions)
	if m.QueueP50 != one.QueueP50 || m.QueueP99 != one.QueueP99 || m.TurnaroundP99 != one.TurnaroundP99 ||
		m.SimLatencyP50 != one.SimLatencyP50 || m.SimLatencyP99 != one.SimLatencyP99 || m.SLOAttainRate != one.SLOAttainRate {
		t.Fatalf("merged percentiles differ from one report over the same rows:\nmerged %+v\none    %+v", m, one)
	}
	if m.QueueP99 != 5 || m.SLOAttainRate != 0.6 {
		t.Fatalf("queue p99 %v and attainment %v, want 5 and 3/5 over both reports' rows", m.QueueP99, m.SLOAttainRate)
	}
}

// Merge reads the inputs' rows in place: over three reports it allocates
// less than one row copy per input row — the merged report, one slice
// header per input and one float per row — at 100 and at 1000 rows each.
func TestMergeAllocatesNoRows(t *testing.T) {
	row := float64(unsafe.Sizeof(SessionMetrics{}))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{100, 1000} {
		reps := []*Report{synthReport(1, n), synthReport(2, n), synthReport(3, n)}
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Merge(reps...)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%d rows per report: %v B per Merge, row %v B", n, bytes, row)
		if limit := 3 * float64(n) * row; bytes >= limit {
			t.Errorf("Merge over 3×%d rows allocates %v B, want < %v (one row copy per row)", n, bytes, limit)
		}
	}
}

// synthReport is an engine report of n rows with distinct counters seeded
// by k: queueing delays 0..n−1 ticks, the even rows deadlined and the first
// half of those attained.
func synthReport(k, n int) *Report {
	r := &Report{
		Ticks: 10 * k, TotalTokens: 100 * k, GoodTokens: 50 * k, SimTokS: float64(k), Goodput: float64(k) / 2,
		CacheHits: int64(3 * k), CacheMisses: int64(k), Retries: k, recoverTicks: 5 * k, recoveries: k + 1,
		Sessions: make([]SessionMetrics, n),
	}
	for i := range r.Sessions {
		sm := &r.Sessions[i]
		*sm = SessionMetrics{
			ID: fmt.Sprintf("r%d-%d", k, i), Index: i, Decoded: i % 3, Outcome: OutcomeOK,
			Point: eval.Point{LatencyS: float64(k*n + i)}, QueueTicks: i, Turnaround: float64(i + k),
			DeadlineTick: NoDeadline,
		}
		if i%2 == 0 {
			sm.DeadlineTick, sm.Attained = i, i < n/2
		}
	}
	return r
}
