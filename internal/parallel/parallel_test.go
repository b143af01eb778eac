package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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
