package cascade

import (
	"math/rand"
	"sort"
	"testing"

	"geostreams/internal/geom"
)

func sortedIDs(ids []QueryID) []QueryID {
	out := append([]QueryID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []QueryID) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedIDs(a), sortedIDs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pointRect is the zero-area rect at p. Rects are closed, so probing it
// returns exactly the regions that contain p: the point query.
func pointRect(p geom.Vec2) geom.Rect {
	return geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// treeDepth returns the maximum depth of t's partition.
func treeDepth(t *Tree) int {
	var f func(n *treeNode) int
	f = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		return 1 + max(f(n.lo), f(n.hi))
	}
	return f(t.root)
}

// named pairs an index with the label its failures print.
type named struct {
	name string
	Index
}

func makeIndexes() []named {
	return []named{{"naive", NewNaive()}, {"tree", NewTree()}}
}

func TestIndexBasics(t *testing.T) {
	for _, idx := range makeIndexes() {
		idx.Insert(1, geom.R(10, 10, 20, 20))
		idx.Insert(2, geom.R(15, 15, 30, 30))
		idx.Insert(3, geom.R(50, 50, 60, 60))
		if idx.Len() != 3 {
			t.Fatalf("%s: Len = %d", idx.name, idx.Len())
		}
		if got := idx.Probe(pointRect(geom.V2(17, 17)), nil); !equalIDs(got, []QueryID{1, 2}) {
			t.Fatalf("%s: point probe = %v", idx.name, got)
		}
		if got := idx.Probe(pointRect(geom.V2(55, 55)), nil); !equalIDs(got, []QueryID{3}) {
			t.Fatalf("%s: point probe = %v", idx.name, got)
		}
		if got := idx.Probe(pointRect(geom.V2(90, 90)), nil); len(got) != 0 {
			t.Fatalf("%s: empty point probe = %v", idx.name, got)
		}
		if got := idx.Probe(geom.R(18, 18, 55, 55), nil); !equalIDs(got, []QueryID{1, 2, 3}) {
			t.Fatalf("%s: Probe = %v", idx.name, got)
		}
		idx.Remove(2)
		if idx.Len() != 2 {
			t.Fatalf("%s: Len after remove = %d", idx.name, idx.Len())
		}
		if got := idx.Probe(pointRect(geom.V2(17, 17)), nil); !equalIDs(got, []QueryID{1}) {
			t.Fatalf("%s: point probe after remove = %v", idx.name, got)
		}
		// Removing an unknown id is a no-op.
		idx.Remove(999)
		if idx.Len() != 2 {
			t.Fatalf("%s: remove unknown changed Len", idx.name)
		}
	}
}

func TestIndexReinsertReplaces(t *testing.T) {
	for _, idx := range makeIndexes() {
		idx.Insert(7, geom.R(0, 0, 10, 10))
		idx.Insert(7, geom.R(40, 40, 50, 50))
		if idx.Len() != 1 {
			t.Fatalf("%s: re-insert duplicated: Len=%d", idx.name, idx.Len())
		}
		if got := idx.Probe(pointRect(geom.V2(5, 5)), nil); len(got) != 0 {
			t.Fatalf("%s: old region still live", idx.name)
		}
		if got := idx.Probe(pointRect(geom.V2(45, 45)), nil); !equalIDs(got, []QueryID{7}) {
			t.Fatalf("%s: new region missing", idx.name)
		}
	}
}

// Property: the tree always agrees with the naive index under random
// workloads of inserts, removes, point probes, and rect probes.
func TestIndexAgreementRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	naive := NewNaive()
	others := []named{{"tree", NewTree()}}

	live := map[QueryID]bool{}
	nextID := QueryID(1)
	randRect := func() geom.Rect {
		x, y := rng.Float64()*95, rng.Float64()*95
		return geom.R(x, y, x+rng.Float64()*20, y+rng.Float64()*20)
	}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			id := nextID
			nextID++
			r := randRect()
			naive.Insert(id, r)
			for _, o := range others {
				o.Insert(id, r)
			}
			live[id] = true
		case op < 6 && len(live) > 0: // remove
			var id QueryID
			for k := range live {
				id = k
				break
			}
			delete(live, id)
			naive.Remove(id)
			for _, o := range others {
				o.Remove(id)
			}
		case op < 9: // point probe
			p := geom.V2(rng.Float64()*110-5, rng.Float64()*110-5)
			want := naive.Probe(pointRect(p), nil)
			for _, o := range others {
				if got := o.Probe(pointRect(p), nil); !equalIDs(got, want) {
					t.Fatalf("step %d: %s point probe at %v = %v, want %v", step, o.name, p, got, want)
				}
			}
		default: // probe
			q := randRect()
			want := naive.Probe(q, nil)
			for _, o := range others {
				if got := o.Probe(q, nil); !equalIDs(got, want) {
					t.Fatalf("step %d: %s.Probe(%v) = %v, want %v", step, o.name, q, got, want)
				}
			}
		}
	}
	for _, o := range others {
		if o.Len() != naive.Len() {
			t.Fatalf("%s: Len = %d, want %d", o.name, o.Len(), naive.Len())
		}
	}
}

func TestTreeSplitsUnderLoad(t *testing.T) {
	tree := NewTree()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		tree.Insert(QueryID(i), geom.R(x, y, x+5, y+5))
	}
	if d := treeDepth(tree); d < 4 {
		t.Fatalf("tree depth %d: did not split under load", d)
	}
	if tree.Len() != 2000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	// Point probes must still be exact: rebuild the same workload into a naive
	// index (same seed) and compare.
	p := geom.V2(500, 500)
	got := tree.Probe(pointRect(p), nil)
	naive := NewNaive()
	rng = rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		naive.Insert(QueryID(i), geom.R(x, y, x+5, y+5))
	}
	if !equalIDs(got, naive.Probe(pointRect(p), nil)) {
		t.Fatal("tree point probe disagrees with naive after splits")
	}
}

func TestTreeRebuildAfterChurn(t *testing.T) {
	tree := NewTree()
	// Insert then remove many regions; the survivor set must stay exact.
	for i := 0; i < 500; i++ {
		x := float64(i % 50)
		tree.Insert(QueryID(i), geom.R(x, x, x+2, x+2))
	}
	for i := 0; i < 500; i += 2 {
		tree.Remove(QueryID(i))
	}
	if tree.Len() != 250 {
		t.Fatalf("Len after churn = %d", tree.Len())
	}
	got := tree.Probe(pointRect(geom.V2(11, 11)), nil)
	// Regions with x in [9, 11] and odd survive: ids where i%50 in {9,10,11} and odd.
	var want []QueryID
	for i := 1; i < 500; i += 2 {
		x := float64(i % 50)
		if geom.R(x, x, x+2, x+2).Contains(geom.V2(11, 11)) {
			want = append(want, QueryID(i))
		}
	}
	if !equalIDs(got, want) {
		t.Fatalf("point probe after churn = %v, want %v", got, want)
	}
}

func TestIdenticalRegionsNoInfiniteSplit(t *testing.T) {
	// Many identical regions cannot be separated by any split; the tree
	// must not recurse forever.
	tree := NewTree()
	for i := 0; i < 100; i++ {
		tree.Insert(QueryID(i), geom.R(5, 5, 6, 6))
	}
	got := tree.Probe(pointRect(geom.V2(5.5, 5.5)), nil)
	if len(got) != 100 {
		t.Fatalf("point probe = %d ids, want 100", len(got))
	}
}
