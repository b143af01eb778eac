// Package parallel is the shared worker-pool layer for the repository: a
// blocked-range executor sized from GOMAXPROCS (overridable via the
// REPRO_PROCS environment variable or SetProcs) that the nn token loops,
// the serving tick and the experiment drivers all use.
//
// Design notes:
//
//   - SetProcs starts procs−1 persistent workers once. For/ForWorker split
//     [0, n) into at most Procs() contiguous blocks and hand each block past
//     the first to an idle worker. When no worker is idle — including when a
//     parallel region nests inside another — blocks run inline on the
//     caller, so nesting can never deadlock and total concurrency stays
//     bounded by Procs(). A fan-out allocates nothing of its own.
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
	"sync/atomic"
)

// limiter is one pool configuration: its procs−1 workers, each either
// parked in idle or running a block for the ForWorker call that took it.
// SetProcs swaps the whole limiter, so in-flight calls keep a consistent
// view, and retires the old one's workers as they come back idle.
type limiter struct {
	procs   int
	idle    chan *worker // capacity procs−1: every worker fits
	retired atomic.Bool
}

// worker is one persistent pool goroutine. Only the ForWorker call that
// took it from idle sends it a block, reads its done signal and links it
// into that call's dispatched list through next.
type worker struct {
	run  chan block
	done chan struct{}
	next *worker
}

// block is one dispatched range of a ForWorker call.
type block struct {
	fn        func(worker, lo, hi int)
	w, lo, hi int
}

func (wk *worker) loop() {
	for b := range wk.run {
		b.fn(b.w, b.lo, b.hi)
		wk.done <- struct{}{}
	}
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
// regions already running keep their previous size, and the previous
// pool's workers exit as soon as they are idle. Setting the current size
// keeps the running pool.
func SetProcs(n int) {
	n = max(n, 1)
	if old := lim.Load(); old != nil && old.procs == n {
		return
	}
	l := &limiter{procs: n, idle: make(chan *worker, n-1)}
	for i := 0; i < n-1; i++ {
		wk := &worker{run: make(chan block, 1), done: make(chan struct{}, 1)}
		go wk.loop()
		l.idle <- wk
	}
	if old := lim.Swap(l); old != nil {
		// A worker still running a block is stopped by the ForWorker call
		// that dispatched it: that call hands it back to idle, then sees
		// the mark and drains.
		old.retired.Store(true)
		old.drain()
	}
}

// drain stops every worker parked in idle.
func (l *limiter) drain() {
	for {
		select {
		case wk := <-l.idle:
			close(wk.run)
		default:
			return
		}
	}
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
	var dispatched *worker
	for w := 1; w < blocks; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		select {
		case wk := <-l.idle:
			wk.run <- block{fn: fn, w: w, lo: lo, hi: hi}
			wk.next, dispatched = dispatched, wk
		default:
			// Every worker busy (or a nested region): run on the caller.
			fn(w, lo, hi)
		}
	}
	fn(0, 0, chunk)
	for wk := dispatched; wk != nil; {
		next := wk.next
		<-wk.done
		l.idle <- wk
		wk = next
	}
	if l.retired.Load() {
		l.drain()
	}
}
