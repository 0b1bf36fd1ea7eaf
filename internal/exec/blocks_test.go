package exec

import (
	"sync"
	"testing"
)

func TestForBlocksCoversEveryElementOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, ParallelCutoff - 1, ParallelCutoff,
		ParallelCutoff*4 + 13, 1 << 20} {
		hits := make([]int32, n)
		var mu sync.Mutex
		ForBlocks(n, func(i0, i1 int) {
			if i0 < 0 || i1 > n || i0 >= i1 {
				t.Errorf("bad shard [%d, %d) for n=%d", i0, i1, n)
			}
			mu.Lock()
			for i := i0; i < i1; i++ {
				hits[i]++
			}
			mu.Unlock()
		})
		for i, c := range hits {
			if c != 1 {
				t.Fatalf("n=%d: element %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForBlocksScalarUnderCutoff(t *testing.T) {
	calls := 0
	ForBlocks(ParallelCutoff-1, func(i0, i1 int) { calls++ })
	if calls != 1 {
		t.Fatalf("small loop split into %d shards, want 1 scalar call", calls)
	}
}

func TestForBlocksRespectsParallelismOne(t *testing.T) {
	SetParallelism(1)
	defer SetParallelism(0)
	calls := 0
	ForBlocks(1<<22, func(i0, i1 int) { calls++ })
	if calls != 1 {
		t.Fatalf("parallelism 1 split into %d shards, want 1", calls)
	}
}

// TestForBlocksShardBoundariesDeterministic: shard boundaries depend only
// on n, so the set of [i0, i1) ranges is identical at any parallelism —
// the precondition for blocked kernels being bit-identical.
func TestForBlocksShardBoundariesDeterministic(t *testing.T) {
	n := ParallelCutoff*8 + 31
	collect := func() map[[2]int]bool {
		var mu sync.Mutex
		set := map[[2]int]bool{}
		ForBlocks(n, func(i0, i1 int) {
			mu.Lock()
			set[[2]int{i0, i1}] = true
			mu.Unlock()
		})
		return set
	}
	SetParallelism(8)
	par := collect()
	SetParallelism(2)
	defer SetParallelism(0)
	two := collect()
	if len(par) != len(two) {
		t.Fatalf("shard count differs: %d vs %d", len(par), len(two))
	}
	for k := range par {
		if !two[k] {
			t.Fatalf("shard %v present at parallelism 8 but not 2", k)
		}
	}
}

// TestAllocValsPooledProvenance pins the fromPool flag the wire ingest
// path uses for its residual-allocation counter.
func TestAllocValsPooledProvenance(t *testing.T) {
	// Drain luck out of the picture: take from an odd class until it
	// misses, then recycle and observe a hit.
	n := 3000
	v, _ := AllocValsPooled(n)
	Recycle(v)
	w, fromPool := AllocValsPooled(n)
	if !fromPool {
		t.Fatal("allocation after recycle of same class not served from pool")
	}
	if len(w) != n {
		t.Fatalf("len = %d, want %d", len(w), n)
	}
	Recycle(w)

	big, fromPool := AllocValsPooled(1<<maxClassBits + 1)
	if fromPool {
		t.Fatal("out-of-range allocation claimed pool provenance")
	}
	_ = big
}
