package cascade

import (
	"math/rand"
	"sync"
	"testing"

	"geostreams/internal/geom"
)

// intRect draws a rect with integer corners in [0, span], so rects share
// edges and corners constantly — the coincidences the continuous-coordinate
// randomized suite never produces. Zero-area rects (lines and points) are
// legal and common: lo == hi on either axis.
func intRect(rng *rand.Rand, span int) geom.Rect {
	x0, x1 := rng.Intn(span+1), rng.Intn(span+1)
	y0, y1 := rng.Intn(span+1), rng.Intn(span+1)
	if rng.Intn(4) == 0 { // force zero area on one axis
		x1 = x0
	}
	if rng.Intn(8) == 0 { // force a single point
		x1, y1 = x0, y0
	}
	return geom.R(float64(x0), float64(y0), float64(x1), float64(y1))
}

// TestIndexBoundarySemantics pins the closed-interval contract: every index
// must agree with direct geom.RectRegion.Contains / Rect.Intersects on rect
// edges and corners. Rects and probes share integer coordinates, so point
// probes land exactly on region edges and on tree split lines, and probe
// rects share edges with regions — where half-open descent logic silently
// drops matches.
func TestIndexBoundarySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	const span = 16
	indexes := makeIndexes()
	regions := map[QueryID]geom.Rect{}
	nextID := QueryID(1)

	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // insert
			id := nextID
			nextID++
			r := intRect(rng, span)
			regions[id] = r
			for _, idx := range indexes {
				idx.Insert(id, r)
			}
		case op < 4 && len(regions) > 0: // remove
			var id QueryID
			for k := range regions {
				id = k
				break
			}
			delete(regions, id)
			for _, idx := range indexes {
				idx.Remove(id)
			}
		case op < 7: // point probe at an integer point (lands on edges/corners)
			p := geom.V2(float64(rng.Intn(span+1)), float64(rng.Intn(span+1)))
			var want []QueryID
			for id, r := range regions {
				if (geom.RectRegion{Rect: r}).Contains(p) {
					want = append(want, id)
				}
			}
			for _, idx := range indexes {
				if got := idx.Probe(pointRect(p), nil); !equalIDs(got, want) {
					t.Fatalf("step %d: %s point probe at %v = %v, want %v (direct Contains)",
						step, idx.name, p, got, want)
				}
			}
		default: // probe with a rect sharing edges with regions
			q := intRect(rng, span)
			var want []QueryID
			for id, r := range regions {
				if r.Intersects(q) {
					want = append(want, id)
				}
			}
			for _, idx := range indexes {
				if got := idx.Probe(q, nil); !equalIDs(got, want) {
					t.Fatalf("step %d: %s.Probe(%v) = %v, want %v (direct Intersects)",
						step, idx.name, q, got, want)
				}
			}
		}
	}
}

// TestTreeStabOnSplitLine is the distilled boundary regression. Three
// regions with centers 5, 10, 15 force a split exactly at x=10 (the median):
// region 1 (MaxX == 10) lands in the lo child, region 3 (MinX == 10) in hi,
// region 2 spans and stays resident. The point x=10 lies in all three
// (closed rects), but a single-path descent picked hi only and missed
// region 1; a probe starting at x=10 likewise skipped the lo child.
func TestTreeStabOnSplitLine(t *testing.T) {
	tree := NewTree()
	tree.LeafCapacity = 2
	tree.Insert(1, geom.R(0, 0, 10, 20))
	tree.Insert(2, geom.R(8, 0, 12, 20))
	tree.Insert(3, geom.R(10, 0, 20, 20))
	if d := treeDepth(tree); d < 2 {
		t.Fatalf("setup failed: tree did not split (depth %d)", d)
	}
	p := geom.V2(10, 5)
	if got := tree.Probe(pointRect(p), nil); !equalIDs(got, []QueryID{1, 2, 3}) {
		t.Fatalf("point probe on split line = %v, want [1 2 3]", got)
	}
	if got := tree.Probe(geom.R(10, 0, 11, 20), nil); !equalIDs(got, []QueryID{1, 2, 3}) {
		t.Fatalf("Probe touching split line = %v, want [1 2 3]", got)
	}
}

// TestTreeDegenerateRects: empty and inverted rects must register, count,
// replace, and remove without corrupting the partition — and must never
// answer a probe (an empty rect contains nothing). Before the
// side-set fix their ±Inf coordinates reached the split median as NaN,
// making whole subtrees unreachable.
func TestTreeDegenerateRects(t *testing.T) {
	tree := NewTree()
	tree.LeafCapacity = 2
	// Enough empties to overflow any leaf they would have landed in.
	for i := 0; i < 20; i++ {
		tree.Insert(QueryID(i), geom.EmptyRect())
	}
	if tree.Len() != 20 {
		t.Fatalf("Len with empty rects = %d, want 20", tree.Len())
	}
	if got := tree.Probe(geom.R(-1e9, -1e9, 1e9, 1e9), nil); len(got) != 0 {
		t.Fatalf("empty rects answered a probe: %v", got)
	}
	// Normal regions inserted alongside must stay fully routable.
	for i := 100; i < 140; i++ {
		x := float64(i - 100)
		tree.Insert(QueryID(i), geom.R(x, x, x+1, x+1))
	}
	for i := 100; i < 140; i++ {
		x := float64(i - 100)
		if got := tree.Probe(pointRect(geom.V2(x+0.5, x+0.5)), nil); !equalIDs(got, []QueryID{QueryID(i)}) {
			t.Fatalf("region %d unroutable alongside empty rects: %v", i, got)
		}
	}
	// Replace an empty with a real rect and vice versa.
	tree.Insert(3, geom.R(500, 500, 501, 501))
	if got := tree.Probe(pointRect(geom.V2(500.5, 500.5)), nil); !equalIDs(got, []QueryID{3}) {
		t.Fatalf("empty→real replace not routable: %v", got)
	}
	tree.Insert(3, geom.EmptyRect())
	if got := tree.Probe(pointRect(geom.V2(500.5, 500.5)), nil); len(got) != 0 {
		t.Fatalf("real→empty replace still routable: %v", got)
	}
	if tree.Len() != 20+40 {
		t.Fatalf("Len after replaces = %d, want 60", tree.Len())
	}
	for i := 0; i < 20; i++ {
		tree.Remove(QueryID(i))
	}
	if tree.Len() != 40 {
		t.Fatalf("Len after removing empties = %d, want 40", tree.Len())
	}
}

// TestTreeInfiniteExtentRegions: half-planes and the world rect have
// non-finite centers on one or both axes; they must neither poison split
// medians (NaN split lines hide subtrees) nor be lost themselves.
func TestTreeInfiniteExtentRegions(t *testing.T) {
	tree := NewTree()
	tree.LeafCapacity = 2
	world := geom.WorldRect()
	tree.Insert(1, world)
	halfPlane := geom.Rect{MinX: world.MinX, MinY: 0, MaxX: 0, MaxY: 1}
	tree.Insert(2, halfPlane)
	for i := 10; i < 60; i++ {
		x := float64(i)
		tree.Insert(QueryID(i), geom.R(x, x, x+1, x+1))
	}
	for i := 10; i < 60; i++ {
		x := float64(i)
		got := tree.Probe(pointRect(geom.V2(x+0.5, x+0.5)), nil)
		if !equalIDs(got, []QueryID{1, QueryID(i)}) {
			t.Fatalf("point probe at %v = %v, want [1 %d] (world + tile)", x+0.5, got, i)
		}
	}
	if got := tree.Probe(pointRect(geom.V2(-100, 0.5)), nil); !equalIDs(got, []QueryID{1, 2}) {
		t.Fatalf("half-plane point probe = %v, want [1 2]", got)
	}
}

// TestTreeReplaceDuringRebuild: a re-insert whose Remove leg triggers the
// rebuild must leave exactly the new rect routable. The rebuild walks the
// old partition while byID is mid-update; a stale resident entry carried
// into the new partition would make the *old* rect answer probes again.
func TestTreeReplaceDuringRebuild(t *testing.T) {
	tree := NewTree()
	// Drive mutations to just below the rebuild threshold, then replace one
	// id repeatedly so every replace crosses it.
	for i := 0; i < 64; i++ {
		x := float64(i)
		tree.Insert(QueryID(i), geom.R(x, 0, x+1, 1))
	}
	for rep := 0; rep < 200; rep++ {
		x := float64(1000 + rep)
		tree.Insert(7, geom.R(x, 0, x+1, 1))
		// The previous rect of id 7 must be gone from routing entirely.
		if rep > 0 {
			prev := float64(1000 + rep - 1)
			for _, id := range tree.Probe(pointRect(geom.V2(prev+0.5, 0.5)), nil) {
				if id == 7 {
					t.Fatalf("rep %d: stale rect of id 7 still routable after replace", rep)
				}
			}
		}
		if got := tree.Probe(pointRect(geom.V2(x+0.5, 0.5)), nil); !equalIDs(got, []QueryID{7}) {
			t.Fatalf("rep %d: new rect of id 7 not routable: %v", rep, got)
		}
	}
	if tree.Len() != 64 {
		t.Fatalf("Len after replace churn = %d, want 64", tree.Len())
	}
}

// TestIndexOracle1000 is the randomized equivalence suite the issue asks
// for: 1000 independent trials, each a fresh workload of inserts, removes,
// duplicate re-inserts, and degenerate rects, with Naive as the oracle for
// Tree on every point probe and rect probe. Runs under -race in CI.
func TestIndexOracle1000(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		naive := NewNaive()
		tree := NewTree()
		tree.LeafCapacity = 1 + rng.Intn(8) // stress splitting
		others := []named{{"tree", tree}}
		steps := 40 + rng.Intn(80)
		maxID := QueryID(1 + rng.Intn(20)) // small id space → frequent replaces
		for step := 0; step < steps; step++ {
			id := QueryID(rng.Intn(int(maxID))) + 1
			switch op := rng.Intn(10); {
			case op < 4:
				r := intRect(rng, 32)
				if rng.Intn(10) == 0 {
					r = geom.EmptyRect()
				}
				naive.Insert(id, r)
				for _, o := range others {
					o.Insert(id, r)
				}
			case op < 5:
				naive.Remove(id)
				for _, o := range others {
					o.Remove(id)
				}
			case op < 8:
				p := geom.V2(float64(rng.Intn(33)), float64(rng.Intn(33)))
				want := naive.Probe(pointRect(p), nil)
				for _, o := range others {
					if got := o.Probe(pointRect(p), nil); !equalIDs(got, want) {
						t.Fatalf("trial %d step %d: %s point probe at %v = %v, want %v",
							trial, step, o.name, p, got, want)
					}
				}
			default:
				q := intRect(rng, 32)
				want := naive.Probe(q, nil)
				for _, o := range others {
					if got := o.Probe(q, nil); !equalIDs(got, want) {
						t.Fatalf("trial %d step %d: %s.Probe(%v) = %v, want %v",
							trial, step, o.name, q, got, want)
					}
				}
			}
		}
		for _, o := range others {
			if o.Len() != naive.Len() {
				t.Fatalf("trial %d: %s.Len = %d, want %d", trial, o.name, o.Len(), naive.Len())
			}
		}
	}
}

// TestLockedChurn races Insert/Remove against Probe through the
// Locked wrapper — the register/deregister-while-chunks-flow pattern the
// shared router produces. Meaningful only under -race; without locking the
// detector fails it immediately.
func TestLockedChurn(t *testing.T) {
	idx := NewLocked(NewTree())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := QueryID(rng.Intn(64))
				if rng.Intn(3) == 0 {
					idx.Remove(id)
				} else {
					idx.Insert(id, intRect(rng, 32))
				}
			}
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx.Probe(intRect(rng, 32), nil)
				idx.Probe(pointRect(geom.V2(rng.Float64()*32, rng.Float64()*32)), nil)
				idx.Len()
			}
		}(int64(w))
	}
	for i := 0; i < 2000; i++ {
		idx.Probe(geom.R(0, 0, 32, 32), nil)
	}
	close(stop)
	wg.Wait()
}
