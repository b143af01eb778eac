package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversRangeOnce(t *testing.T) {
	defer SetProcs(Procs())
	for _, procs := range []int{1, 2, 3, 8} {
		SetProcs(procs)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 16, 1000} {
				hits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("procs=%d n=%d grain=%d: index %d visited %d times", procs, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForWorkerIdsAreStableAndBounded(t *testing.T) {
	defer SetProcs(Procs())
	SetProcs(4)
	n, grain := 100, 5
	nw := Workers(n, grain)
	if nw < 1 || nw > 4*4 {
		t.Fatalf("Workers(%d,%d) = %d, want in [1,16]", n, grain, nw)
	}
	owner := make([]int32, n)
	var seen sync.Map
	ForWorker(n, grain, func(w, lo, hi int) {
		if w < 0 || w >= nw {
			t.Errorf("worker id %d out of range [0,%d)", w, nw)
		}
		if _, dup := seen.LoadOrStore(w, true); dup {
			t.Errorf("worker id %d handed out twice", w)
		}
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&owner[i], int32(w))
		}
	})
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("blocks not contiguous ascending: owner[%d]=%d < owner[%d]=%d", i, owner[i], i-1, owner[i-1])
		}
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	defer SetProcs(Procs())
	SetProcs(2)
	var total atomic.Int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(8, 1, func(lo2, hi2 int) {
				for j := lo2; j < hi2; j++ {
					total.Add(1)
				}
			})
		}
	})
	if total.Load() != 64 {
		t.Fatalf("nested For processed %d items, want 64", total.Load())
	}
}

func TestSerialProcsRunsInline(t *testing.T) {
	defer SetProcs(Procs())
	SetProcs(1)
	before := runtime.NumGoroutine()
	var calls int // no synchronization: must be caller-only
	For(100, 1, func(lo, hi int) { calls += hi - lo })
	if calls != 100 {
		t.Fatalf("serial For processed %d items", calls)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("serial For spawned goroutines: %d -> %d", before, after)
	}
}

func TestConcurrentForCallers(t *testing.T) {
	defer SetProcs(Procs())
	SetProcs(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			For(1000, 10, func(lo, hi int) { total.Add(int64(hi - lo)) })
		}()
	}
	wg.Wait()
	if total.Load() != 8000 {
		t.Fatalf("concurrent For processed %d items, want 8000", total.Load())
	}
}

// Every block id is claimed exactly once and every index falls in exactly
// one block, whatever the pool size: below one item per worker, at the
// block cap, past it, and with a fan-out nested in each block.
func TestForWorkerClaimsEveryBlockOnce(t *testing.T) {
	defer SetProcs(Procs())
	for procs := 1; procs <= 4; procs++ {
		SetProcs(procs)
		bcap := blocksPerProc * procs
		if procs == 1 {
			bcap = 1
		}
		for _, n := range []int{1, procs - 1, bcap, bcap + 1, 100} {
			nw := Workers(n, 1)
			if nw > bcap || (n > 0 && nw < 1) || (n == bcap && nw != bcap) {
				t.Fatalf("procs=%d: Workers(%d,1) = %d, want %d blocks at most and all of them at the cap", procs, n, nw, bcap)
			}
			hits := make([]int32, n)
			ids := make([]int32, nw)
			inner := make([][]int32, n)
			ForWorker(n, 1, func(w, lo, hi int) {
				atomic.AddInt32(&ids[w], 1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
					inner[i] = make([]int32, 3*procs)
					ForWorker(len(inner[i]), 1, func(_, lo2, hi2 int) {
						for j := lo2; j < hi2; j++ {
							atomic.AddInt32(&inner[i][j], 1)
						}
					})
				}
			})
			for w, c := range ids {
				if c != 1 {
					t.Fatalf("procs=%d n=%d: block %d claimed %d times", procs, n, w, c)
				}
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, h)
				}
				for j, h := range inner[i] {
					if h != 1 {
						t.Fatalf("procs=%d n=%d: nested index %d/%d visited %d times", procs, n, i, j, h)
					}
				}
			}
		}
	}
}

// A block that waits on later items does not hold them up: the blocks after
// it are claimed by whichever goroutine is free, so item 0 sees items 1–3
// run while it waits. Were blocks fixed to goroutines up front, item 1
// would share item 0's block and the wait would time out.
func TestSlowBlockDoesNotIdleAWorker(t *testing.T) {
	defer SetProcs(Procs())
	SetProcs(2)
	var ran atomic.Int32
	rest := make(chan struct{})
	For(4, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i > 0 {
				if ran.Add(1) == 3 {
					close(rest)
				}
				continue
			}
			select {
			case <-rest:
			case <-time.After(5 * time.Second): //lint:allow wallclock bounds the wait so a pool that fixes item 1 behind item 0 fails instead of hanging; no report reads it
				t.Errorf("item 0 waited 5 s and saw %d of items 1–3 run", ran.Load())
			}
		}
	})
}

// A fan-out hands its job to the pool's standing workers: after warm-up it
// allocates nothing, at one worker or two, with more blocks than workers,
// through For or ForWorker, nested regions included (fn is built once, as a
// caller's per-worker method value is).
func TestForWorkerDoesNotAlloc(t *testing.T) {
	defer SetProcs(Procs())
	var out [4][64]int
	var inner [4]func(_, lo, hi int)
	for w := range inner {
		inner[w] = func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[w][i]++
			}
		}
	}
	outer := func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			ForWorker(len(out[w]), 8, inner[w])
		}
	}
	var small [3][3]int
	var smallRow [3]func(_, lo, hi int)
	for i := range smallRow {
		smallRow[i] = func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				small[i][j]++
			}
		}
	}
	smallNested := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ForWorker(3, 1, smallRow[i])
		}
	}
	ranged := func(lo, hi int) { inner[1](0, lo, hi) }
	rangedNested := func(lo, hi int) { outer(0, lo, hi) }
	for _, procs := range []int{1, 2} {
		SetProcs(procs)
		for _, c := range []struct {
			what string
			f    func()
		}{
			{"ForWorker", func() { ForWorker(len(out[0]), 8, inner[0]) }},
			{"nested ForWorker", func() { ForWorker(len(out), 1, outer) }},
			{"ForWorker with 3 blocks", func() { ForWorker(3, 1, smallRow[0]) }},
			{"nested ForWorker with 3 blocks", func() { ForWorker(3, 1, smallNested) }},
			{"For", func() { For(len(out[1]), 8, ranged) }},
			{"nested For", func() { For(len(out), 1, rangedNested) }},
		} {
			c.f()
			if n := testing.AllocsPerRun(100, c.f); n != 0 {
				t.Errorf("procs %d: %s allocated %v objects per call, want 0", procs, c.what, n)
			}
		}
	}
	// Each fan-out ran once as warm-up and 101 times under AllocsPerRun, at
	// each of the two pool sizes.
	const runs = 2 * 102
	if out[0][0] != 3*runs || out[1][63] != 3*runs || out[3][63] != 2*runs {
		t.Errorf("fan-outs ran %d, %d and %d times, want %d, %d and %d", out[0][0], out[1][63], out[3][63], 3*runs, 3*runs, 2*runs)
	}
	if small[0][0] != 2*runs || small[2][2] != runs {
		t.Errorf("3-block fan-outs ran %d and %d times, want %d and %d", small[0][0], small[2][2], 2*runs, runs)
	}
}

// Resizing the pool retires the previous workers once they are idle, so a
// long run of SetProcs calls with fan-outs (nested ones too) in between
// leaves exactly the current pool's procs−1 goroutines behind.
func TestSetProcsRetiresIdleWorkers(t *testing.T) {
	defer SetProcs(Procs())
	SetProcs(1)
	base := quiet()
	var total atomic.Int64
	for range 50 {
		for _, p := range []int{1, 4, 2, 1} {
			SetProcs(p)
			For(8, 1, func(lo, hi int) {
				For(8, 1, func(lo2, hi2 int) { total.Add(int64((hi - lo) * (hi2 - lo2))) })
			})
		}
	}
	if total.Load() != 50*4*64 {
		t.Fatalf("fan-outs processed %d items, want %d", total.Load(), 50*4*64)
	}
	for _, p := range []int{3, 1} {
		SetProcs(p)
		if got := quiet(); got != base+p-1 {
			t.Fatalf("procs %d: %d goroutines once settled, want %d + %d", p, got, base, p-1)
		}
	}
}

// quiet returns the goroutine count once it has held still for 20 polls a
// millisecond apart: retired workers exit asynchronously once their run
// channel closes.
func quiet() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 20; {
		time.Sleep(time.Millisecond) //lint:allow wallclock waits for retired pool goroutines to exit; no report reads it
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}
