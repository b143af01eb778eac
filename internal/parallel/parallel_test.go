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
	if nw < 1 || nw > 4 {
		t.Fatalf("Workers(%d,%d) = %d, want in [1,4]", n, grain, nw)
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

// A fan-out hands blocks to the pool's standing workers: after warm-up it
// allocates nothing, nested regions included (fn is built once, as a
// caller's per-worker method value is).
func TestForWorkerDoesNotAlloc(t *testing.T) {
	defer SetProcs(Procs())
	SetProcs(2)
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
	ForWorker(len(out), 1, outer)
	if n := testing.AllocsPerRun(100, func() { ForWorker(len(out[0]), 8, inner[0]) }); n != 0 {
		t.Errorf("ForWorker allocated %v objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ForWorker(len(out), 1, outer) }); n != 0 {
		t.Errorf("nested ForWorker allocated %v objects per call, want 0", n)
	}
	if want := 1 + 101 + 101; out[0][0] != want || out[3][63] != 1+101 {
		t.Errorf("fan-outs ran %d and %d times, want %d and %d", out[0][0], out[3][63], want, 1+101)
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
