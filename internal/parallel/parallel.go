// Package parallel is the shared worker-pool layer for the repository: a
// blocked-range executor sized from GOMAXPROCS (overridable via the
// REPRO_PROCS environment variable or SetProcs) that the nn token loops,
// the serving tick and the experiment drivers all use.
//
// Design notes:
//
//   - SetProcs starts procs−1 persistent workers once. For/ForWorker cut
//     [0, n) into at most 4·Procs() contiguous blocks (one at Procs()==1),
//     store the call in the first idle worker, send every other idle worker
//     to it, and claim block ids in ascending order beside them until none
//     remain, so a goroutine that finishes a light block takes the next one
//     instead of idling behind a heavy one. When no worker is idle —
//     including when a parallel region nests inside another — every block
//     runs inline on the caller in order, so nesting can never deadlock and
//     total concurrency stays bounded by Procs(). A fan-out allocates
//     nothing of its own.
//   - Determinism contract: every index is processed exactly once and block
//     boundaries and ids depend only on (n, grain, Procs()), never on which
//     goroutine claims a block. Callers write disjoint output slots per
//     index, so results are bit-identical for any worker count; Procs()==1
//     degenerates to a plain loop with no goroutines and no channel traffic.
//   - ForWorker passes each block's id in [0, Workers(n, grain)), letting
//     callers keep per-block scratch arenas: slot w is only ever touched by
//     the one goroutine that claimed block w.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
)

// limiter is one pool configuration: its procs−1 workers, each either
// parked in idle or claiming blocks for the ForWorker call that took it.
// SetProcs swaps the whole limiter, so in-flight calls keep a consistent
// view, and retires the old one's workers as they come back idle.
type limiter struct {
	procs   int
	idle    chan *worker // capacity procs−1: every worker fits
	retired atomic.Bool
}

// worker is one persistent pool goroutine. Only the ForWorker call that
// took it from idle sends it a job, reads its done signal and links it into
// that call's dispatched list through next. The first worker a call takes
// also holds that call's job, so a fan-out allocates nothing.
type worker struct {
	run  chan *job
	done chan struct{}
	next *worker
	job  job
}

// job is one ForWorker call: [0, n) cut into blocks of chunk items, handed
// out in id order to whichever goroutine claims next. Exactly one of fn and
// fnRange is set.
type job struct {
	fn               func(worker, lo, hi int)
	fnRange          func(lo, hi int)
	n, chunk, blocks int
	next             atomic.Int64 // the next unclaimed block id
}

// runBlock runs block w of j.
func (j *job) runBlock(w int) {
	lo := w * j.chunk
	hi := min(lo+j.chunk, j.n)
	if j.fnRange != nil {
		j.fnRange(lo, hi)
	} else {
		j.fn(w, lo, hi)
	}
}

// claim runs unclaimed blocks of j until none remain.
func (j *job) claim() {
	for {
		w := int(j.next.Add(1) - 1)
		if w >= j.blocks {
			return
		}
		j.runBlock(w)
	}
}

func (wk *worker) loop() {
	for j := range wk.run {
		j.claim()
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
		wk := &worker{run: make(chan *job, 1), done: make(chan struct{}, 1)}
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

// blocksPerProc is how many blocks per pool worker plan cuts a range into
// when the pool has more than one: a goroutine that finishes a light block
// claims the next one instead of idling while another runs a heavy one.
const blocksPerProc = 4

// plan returns the number of blocks and the block size ForWorker will use
// for a range of n items with the given minimum grain per block: at most
// blocksPerProc·procs blocks, and one block at procs 1.
func plan(n, grain, procs int) (blocks, chunk int) {
	if grain < 1 {
		grain = 1
	}
	most := blocksPerProc * procs
	if procs == 1 {
		most = 1
	}
	w := max(min((n+grain-1)/grain, most), 1)
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
	run(n, grain, nil, fn)
}

// ForWorker is For with a block id: fn(w, lo, hi) is the only invocation
// that receives id w, so fn may use w to index caller-owned scratch without
// synchronization.
func ForWorker(n, grain int, fn func(worker, lo, hi int)) {
	run(n, grain, fn, nil)
}

// run is For and ForWorker: the job lives in the first idle worker taken,
// every other idle worker is sent to the same job, and the caller claims
// blocks beside them until none remain.
func run(n, grain int, fn func(worker, lo, hi int), fnRange func(lo, hi int)) {
	if n <= 0 {
		return
	}
	l := lim.Load()
	blocks, chunk := plan(n, grain, l.procs)
	var owner *worker
	if blocks > 1 {
		select {
		case owner = <-l.idle:
		default:
		}
	}
	if owner == nil {
		// One block, or every worker busy (a nested region usually finds
		// that): the caller claims every block, in order.
		j := job{fn: fn, fnRange: fnRange, n: n, chunk: chunk, blocks: blocks}
		for w := range blocks {
			j.runBlock(w)
		}
		return
	}
	j := &owner.job
	j.fn, j.fnRange, j.n, j.chunk, j.blocks = fn, fnRange, n, chunk, blocks
	j.next.Store(0)
	owner.run <- j
	owner.next = nil
	dispatched := owner
	// The caller claims too, so blocks−1 workers are the most worth sending.
dispatch:
	for k := 2; k < blocks; k++ {
		select {
		case wk := <-l.idle:
			wk.run <- j
			wk.next, dispatched = dispatched, wk
		default:
			break dispatch
		}
	}
	j.claim()
	// owner went in first, so it comes back last, once no worker reads its
	// job; the job drops fn then, so an idle worker keeps no closure alive.
	for wk := dispatched; wk != nil; {
		next := wk.next
		<-wk.done
		if wk == owner {
			j.fn, j.fnRange = nil, nil
		}
		l.idle <- wk
		wk = next
	}
	if l.retired.Load() {
		l.drain()
	}
}
