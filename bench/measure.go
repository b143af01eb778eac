package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

var epoch time.Time

// now is the harness's only clock read: monotonic nanoseconds since the
// first call. Every host-clock metric is a difference of two now() values.
func now() int64 {
	t := time.Now() //lint:allow wallclock the benchmark harness measures host time by design; this is its single clock read
	if epoch.IsZero() {
		epoch = t
	}
	return int64(t.Sub(epoch))
}

// rusage reads the process's user+system CPU seconds so far — GC workers
// and pool workers included, which is what makes it the cost of a rep
// rather than the cost of one goroutine — and its high-water resident set
// in MB (Linux reports KiB).
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// hostCost is what one timed region cost the host.
type hostCost struct {
	wallS, cpuS float64
	allocBytes  uint64
	mallocs     uint64
}

// timed runs fn between a forced GC and a pair of clock/rusage/MemStats
// reads. The GC and the MemStats reads (both stop-the-world) sit outside
// the wall and CPU window.
func timed(fn func() error) (hostCost, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0, _ := rusage()
	t0 := now()
	err := fn()
	t1 := now()
	c1, _ := rusage()
	runtime.ReadMemStats(&m1)
	return hostCost{
		wallS:      float64(t1-t0) / 1e9,
		cpuS:       c1 - c0,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
	}, err
}

// minOfK times k batches of inner calls and returns the best batch's
// nanoseconds per call — the probe estimator: interference only ever adds
// time, so the minimum is the least contaminated sample.
func minOfK(k, inner int, fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		t0 := now()
		for j := 0; j < inner; j++ {
			fn()
		}
		if ns := float64(now()-t0) / float64(inner); ns < best {
			best = ns
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile with the
// exclusive method of Python's statistics.quantiles(values, n=4) — the
// estimator the acceptance check computes spreads with.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - 4*float64(j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(vals []float64) float64 {
	_, med, _ := quartiles(vals)
	return med
}
