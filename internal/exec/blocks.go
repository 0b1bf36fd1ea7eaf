package exec

import (
	"sync"
	"sync/atomic"
)

// Block API: the 1-D twin of ForRows for kernels that operate on a
// flat []float64 slab with no per-row structure. Point-wise stages (value
// transforms, fused chains, compose arithmetic) are element-independent, so
// sharding at arbitrary element boundaries is safe and lets each worker
// sweep one long contiguous range — no per-row closure re-dispatch, and
// loop bodies the compiler can keep in registers.
//
// The contract matches ForRows exactly:
//
//   - Determinism: shard boundaries depend only on n, never on worker count
//     or scheduling.
//   - ParallelCutoff: loops under the cutoff run as a single scalar call.
//   - Non-blocking submission: the caller always participates; a saturated
//     pool degrades to scalar execution.

// blockShard picks the shard length for an n-element loop. Like shardRows,
// the boundary depends only on the geometry (n).
func blockShard(n int) int {
	step := ParallelCutoff / 4
	if step > n {
		step = n
	}
	if step < 1 {
		step = 1
	}
	return step
}

// ForBlocks runs fn over [0, n), splitting it into contiguous [i0, i1)
// shards executed concurrently on the shared pool. Loops under
// ParallelCutoff elements (or with parallelism 1) run as a single scalar
// call. fn must be safe to run concurrently for disjoint element ranges —
// point-wise kernels satisfy this by writing only dst[i0:i1].
func ForBlocks(n int, fn func(i0, i1 int)) {
	p := Parallelism()
	if n <= 0 {
		return
	}
	if p <= 1 || n < ParallelCutoff {
		scalarKernels.Add(1)
		fn(0, n)
		return
	}
	poolOnce.Do(startPool)

	step := blockShard(n)
	var cursor atomic.Int64
	run := func() {
		for {
			i1 := int(cursor.Add(int64(step)))
			i0 := i1 - step
			if i0 >= n {
				return
			}
			if i1 > n {
				i1 = n
			}
			shardsRun.Add(1)
			fn(i0, i1)
		}
	}

	helpers := (n + step - 1) / step
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
			wg.Done()
			i = helpers
		}
	}
	run()
	wg.Wait()
	parallelKernels.Add(1)
}
