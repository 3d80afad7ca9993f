// Package parallel provides the worker-pool scheduling used by the bulk
// kernels of this repository: prefix-sum construction, batch updates and
// tree building all decompose into independent 1-D lines (or panels of
// lines), and this package fans those lines out across GOMAXPROCS workers
// with deterministic contiguous chunking.
//
// Design rules, shared by every caller:
//
//   - Scheduling is deterministic: for a fixed item count and worker budget
//     the chunk boundaries are always the same, so parallel runs are
//     reproducible and per-worker accumulator shards merge in a fixed order.
//   - Small inputs run sequentially: when the estimated work is below Grain
//     (or only one worker is available) the body runs inline on the calling
//     goroutine with worker index 0, so small cubes pay zero goroutine,
//     channel or atomic overhead — counters stay plain int64s on that path.
//   - Workers get contiguous chunks, never interleaved elements, so each
//     worker walks memory in storage order (the §3.3 page-touch argument
//     survives per worker).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Grain is the minimum estimated work (in cell visits) before any goroutines
// are spawned, and the approximate work each additional worker must bring.
// Below it the sequential fallback runs; a 128×128 int64 cube (16384 cells)
// stays sequential, a 512×512 cube fans out.
const Grain = 32 * 1024

// maxWorkers caps the worker budget when positive; 0 means use GOMAXPROCS.
// It exists so tests can force the parallel path on single-core machines
// (and benchmarks can force the sequential one on big ones).
var maxWorkers atomic.Int64

// Pool accounting, exported via Stats for the telemetry layer. The pool is
// fork-join with no run queue, so "queue depth" is the number of chunks
// currently executing (activeChunks); forCalls and chunksRun are lifetime
// totals. The sequential fallback pays exactly one atomic add per call and
// the parallel path three more per dispatch — nothing per item. An Each
// worker counts as a chunk.
var (
	forCalls     atomic.Int64 // For and Each invocations (both paths)
	chunksRun    atomic.Int64 // chunks dispatched, inline chunk 0 included
	activeChunks atomic.Int64 // chunks executing right now
)

// Stats reports the pool's lifetime dispatch counts and current occupancy:
// calls to For and Each, total chunks (Each workers) those calls dispatched,
// and the number executing at this instant.
func Stats() (calls, chunks, active int64) {
	return forCalls.Load(), chunksRun.Load(), activeChunks.Load()
}

// Workers returns the current worker budget: the SetMaxWorkers override if
// set, otherwise runtime.GOMAXPROCS(0).
func Workers() int {
	if n := maxWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxWorkers overrides the worker budget and returns the previous
// override (0 if none was set). n <= 0 removes the override, restoring the
// GOMAXPROCS default. It is intended for tests and benchmarks; production
// callers should let GOMAXPROCS govern.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int64(n)))
}

// chunks returns the number of contiguous chunks to split n items into given
// the estimated total work: at most Workers(), at most n, and no more than
// work/Grain + 1 so every extra worker has at least ~Grain work to do.
func chunks(n, work int) int {
	w := Workers()
	if w > n {
		w = n
	}
	if lim := work/Grain + 1; lim < w {
		w = lim
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For splits the index range [0, n) into contiguous chunks and runs
// body(lo, hi, worker) on each, where worker is the chunk's index
// (0 ≤ worker < number of chunks). It returns the number of chunks used.
//
// work is the caller's estimate of the total unit operations (typically the
// number of cells the whole range will touch); when it is below Grain, or
// the budget is one worker, body runs exactly once, inline, as
// body(0, n, 0) — the sequential fallback. Otherwise the chunks run on
// their own goroutines and For blocks until all complete.
//
// Chunk boundaries are i*n/w for deterministic, balanced splits. The body
// must treat its [lo, hi) slice of items as exclusively owned; distinct
// workers receive disjoint ranges.
func For(n, work int, body func(lo, hi, worker int)) int {
	if n <= 0 {
		return 0
	}
	forCalls.Add(1)
	w := chunks(n, work)
	if w == 1 {
		body(0, n, 0)
		return 1
	}
	chunksRun.Add(int64(w))
	activeChunks.Add(int64(w))
	defer activeChunks.Add(-int64(w))
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		k := k
		go func() {
			defer wg.Done()
			body(lo, hi, k)
		}()
	}
	body(0, n/w, 0)
	wg.Wait()
	return w
}

// Each runs body(i) once for every i in [0, n), for items whose costs are
// close but whose workers may start late: a batch of queries. The workers —
// as many as For would use for n items and work — claim items one at a time
// from a shared counter, the calling goroutine first, so it starts on item 0
// at once and a helper that starts late takes only what is left. Which
// worker runs an item is not deterministic; use For where a result depends
// on the split. It returns the number of workers used; below Grain, or with
// one worker, the items run inline in order, and one item runs inline
// without counting as a call.
func Each(n, work int, body func(i int)) int {
	if n <= 1 {
		if n == 1 {
			body(0)
		}
		return n
	}
	forCalls.Add(1)
	w := chunks(n, work)
	if w == 1 {
		for i := range n {
			body(i)
		}
		return 1
	}
	chunksRun.Add(int64(w))
	activeChunks.Add(int64(w))
	defer activeChunks.Add(-int64(w))
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			body(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	return w
}
