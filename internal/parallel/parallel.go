// Package parallel is the shared worker-pool layer for the repository: a
// blocked-range executor sized from GOMAXPROCS (overridable via the
// REPRO_PROCS environment variable or SetProcs) that the nn token loops,
// the serving tick and the experiment drivers all use.
//
// Design notes:
//
//   - For/ForWorker split [0, n) into at most Procs() contiguous blocks and
//     run them on helper goroutines drawn from a global token bucket. When
//     no helper token is available — including when a parallel region nests
//     inside another — blocks run inline on the caller, so nesting can never
//     deadlock and total concurrency stays bounded by Procs().
//   - Determinism contract: every index is processed exactly once and block
//     boundaries depend only on (n, grain, Procs()), never on scheduling.
//     Callers write disjoint output slots per index, so results are
//     bit-identical for any worker count; Procs()==1 degenerates to a plain
//     loop with no goroutines and no channel traffic.
//   - ForWorker passes a stable worker (block) id in [0, Workers(n, grain)),
//     letting callers keep per-worker scratch arenas: slot w is only ever
//     touched by the goroutine running block w.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// limiter is an immutable snapshot of the pool configuration; SetProcs swaps
// the whole snapshot so in-flight For calls keep a consistent view.
type limiter struct {
	procs  int
	tokens chan struct{}
}

var lim atomic.Pointer[limiter]

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("REPRO_PROCS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	SetProcs(n)
}

// Procs returns the current worker-pool size.
func Procs() int { return lim.Load().procs }

// SetProcs resizes the pool to n workers (clamped to ≥ 1). n == 1 makes
// every For call run serially inline. Safe to call concurrently with For;
// regions already running keep their previous size.
func SetProcs(n int) {
	if n < 1 {
		n = 1
	}
	l := &limiter{procs: n, tokens: make(chan struct{}, n-1)}
	for i := 0; i < n-1; i++ {
		l.tokens <- struct{}{}
	}
	lim.Store(l)
}

// plan returns the number of blocks and the block size For will use for a
// range of n items with the given minimum grain per block.
func plan(n, grain, procs int) (blocks, chunk int) {
	if grain < 1 {
		grain = 1
	}
	w := (n + grain - 1) / grain
	if w > procs {
		w = procs
	}
	if w < 1 {
		w = 1
	}
	chunk = (n + w - 1) / w
	blocks = (n + chunk - 1) / chunk
	return blocks, chunk
}

// Workers returns the number of blocks (and therefore distinct worker ids)
// that ForWorker will use for the same (n, grain) under the current pool
// size. Use it to size per-worker scratch slices.
func Workers(n, grain int) int {
	if n <= 0 {
		return 0
	}
	blocks, _ := plan(n, grain, Procs())
	return blocks
}

// For runs fn over [0, n) as parallel blocks of at least grain items.
// fn(lo, hi) must be safe to call concurrently for disjoint ranges.
func For(n, grain int, fn func(lo, hi int)) {
	ForWorker(n, grain, func(_, lo, hi int) { fn(lo, hi) })
}

// ForWorker is For with a stable worker id per block: fn(w, lo, hi) is the
// only invocation that receives id w, so fn may use w to index caller-owned
// scratch without synchronization.
func ForWorker(n, grain int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	l := lim.Load()
	blocks, chunk := plan(n, grain, l.procs)
	if blocks <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < blocks; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case <-l.tokens:
			wg.Add(1)
			go func(w, lo, hi int) {
				defer func() {
					l.tokens <- struct{}{}
					wg.Done()
				}()
				fn(w, lo, hi)
			}(w, lo, hi)
		default:
			// Pool saturated (or nested region): run on the caller.
			fn(w, lo, hi)
		}
	}
	fn(0, 0, chunk)
	wg.Wait()
}
