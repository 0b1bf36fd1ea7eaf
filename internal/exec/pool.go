// Package exec is the data-parallel execution engine under the GeoStreams
// operator implementations. The paper's §3 cost model prices restrictions
// and point-wise transforms at O(1) per point; this package makes the
// constant small on real hardware by turning the per-pixel loops of the
// dense grid kernels into row-sharded bulk work over a process-wide worker
// pool (the CPU analogue of the GPU-friendly bulk-kernel reformulation in
// Doraiswamy & Freire's spatial algebra), and by recycling grid value
// buffers through a size-classed allocator so steady-state chunk processing
// stops paying one fresh allocation per chunk per stage.
//
// Three properties are load-bearing for the operators built on top:
//
//   - Determinism: ForRows and MapRows shard work at boundaries that depend
//     only on the loop geometry, never on the worker count or scheduling,
//     and MapRows merges partial results in shard order. A kernel computed
//     at parallelism 16 is bit-identical to the same kernel at parallelism
//     1 (the property tests in internal/query assert this end to end).
//   - Non-blocking submission: callers always execute shards themselves
//     while idle pool workers steal the rest, so a busy pool degrades to
//     scalar execution instead of queueing or deadlocking — kernel latency
//     under load never exceeds the single-threaded cost.
//   - Bounded concurrency: one pool, sized once from GOMAXPROCS (or
//     SetParallelism), is shared by every operator of every concurrent
//     query, so N queries cannot oversubscribe the machine with
//     N×GOMAXPROCS kernel goroutines.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelCutoff is the loop size (in points) below which ForRows and
// MapRows stay scalar: sharding a few thousand points across goroutines
// costs more in wake-ups than the loop itself. Row-by-row streams (one
// scan line per chunk) land under the cutoff and keep their existing
// single-core latency; image-by-image frames land far above it.
const ParallelCutoff = 16384

var (
	// parallelism is the target worker count; 0 means "resolve from
	// GOMAXPROCS at use".
	parallelism atomic.Int64

	poolOnce sync.Once
	tasks    chan func()

	// Engine telemetry (geostreams_exec_*, see Collector).
	parallelKernels atomic.Int64
	scalarKernels   atomic.Int64
	shardsRun       atomic.Int64
)

// Parallelism returns the engine's target worker count: the value set by
// SetParallelism, defaulting to GOMAXPROCS.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the target worker count; n <= 0 restores the
// GOMAXPROCS default. Parallelism 1 forces every kernel scalar. The shared
// pool is sized at first use; lowering the target afterwards reduces how
// many workers a kernel will occupy, raising it beyond the pool size only
// has effect before the first parallel kernel runs.
func SetParallelism(n int) {
	if n <= 0 {
		parallelism.Store(0)
		return
	}
	parallelism.Store(int64(n))
}

// startPool launches the process-wide workers. The task channel is
// unbuffered on purpose: a submit succeeds only when a worker is idle and
// already receiving, which is what lets ForRows hand off work with a
// non-blocking send and absorb the remainder on the calling goroutine.
func startPool() {
	n := Parallelism()
	if n < 2 {
		n = 2 // a later SetParallelism may raise the target
	}
	tasks = make(chan func())
	for i := 0; i < n; i++ {
		go func() {
			for f := range tasks {
				f()
			}
		}()
	}
}

// shardRows picks the shard height for an h×w loop: small enough for load
// balancing across the pool, large enough that each shard clears a
// meaningful fraction of the cutoff. The boundaries depend only on (h, w),
// never on the worker count, so shard-order-merged reductions are
// reproducible at any parallelism.
func shardRows(h, w int) int {
	if w <= 0 {
		w = 1
	}
	rows := (ParallelCutoff/4 + w - 1) / w
	if rows < 1 {
		rows = 1
	}
	if rows > h {
		rows = h
	}
	return rows
}

// ForRows runs fn over the row range [0, h) of an h×w grid loop,
// splitting it into contiguous [r0, r1) shards executed concurrently on
// the shared pool. The caller always participates, idle workers join, and
// the call returns when every shard is done. Loops under ParallelCutoff
// points (or with parallelism 1) run as a single scalar call.
//
// fn must be safe to run concurrently for disjoint row ranges — the dense
// kernels satisfy this by writing only rows [r0, r1) of their output
// buffer.
func ForRows(h, w int, fn func(r0, r1 int)) {
	p := Parallelism()
	if h <= 0 {
		return
	}
	if p <= 1 || h*w < ParallelCutoff || h == 1 {
		scalarKernels.Add(1)
		fn(0, h)
		return
	}
	poolOnce.Do(startPool)

	step := shardRows(h, w)
	var cursor atomic.Int64
	run := func() {
		for {
			r1 := int(cursor.Add(int64(step)))
			r0 := r1 - step
			if r0 >= h {
				return
			}
			if r1 > h {
				r1 = h
			}
			shardsRun.Add(1)
			fn(r0, r1)
		}
	}

	helpers := (h + step - 1) / step // no point waking more workers than shards
	if helpers > p {
		helpers = p
	}
	helpers-- // the caller is a worker too
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		task := func() { defer wg.Done(); run() }
		select {
		case tasks <- task:
		default:
			// Pool saturated by other kernels: stop recruiting and let the
			// caller absorb the remaining shards.
			wg.Done()
			i = helpers
		}
	}
	run()
	wg.Wait()
	parallelKernels.Add(1)
}

// MapRows computes one partial result per fixed row shard of an h×w loop —
// concurrently on the shared pool when the loop is large — and returns the
// partials indexed by shard, in row order. Callers merge the partials in
// slice order, which makes reductions (moments, histograms) bit-identical
// at any parallelism: shard boundaries depend only on the geometry, and
// floating-point accumulation order is fixed by the in-order merge.
func MapRows[T any](h, w int, fn func(r0, r1 int) T) []T {
	if h <= 0 {
		return nil
	}
	step := shardRows(h, w)
	n := (h + step - 1) / step
	out := make([]T, n)
	ForRows(n, step*w, func(s0, s1 int) {
		for s := s0; s < s1; s++ {
			r0 := s * step
			r1 := r0 + step
			if r1 > h {
				r1 = h
			}
			out[s] = fn(r0, r1)
		}
	})
	return out
}
