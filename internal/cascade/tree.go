package cascade

import (
	"math"
	"sort"

	"geostreams/internal/geom"
)

// Tree is the dynamic cascade tree of Hart/Gertz/Zhang (SSTD'05, the
// paper's reference [10]): a binary space partition over the registered
// query regions in which every region is stored at the single deepest node
// whose cell fully contains it. A point probe then only examines the
// regions stored along one root-to-leaf path — the "cascade" — so its cost
// is O(depth + answers) instead of O(queries).
//
// Dynamics: insertion descends to the owning node, splitting leaves whose
// resident count exceeds a threshold; removal uses an id→node map. The
// tree rebuilds itself (re-splitting at the medians of current region
// centers) when the number of mutations since the last build exceeds the
// current size, keeping the partition balanced under churn.
type Tree struct {
	root      *treeNode
	byID      map[QueryID]*treeNode
	mutations int
	// empty holds registrations whose rect is empty (inverted or
	// uninitialized). An empty rect contains no point and intersects
	// nothing, so these ids never answer a Probe — but they must
	// still count toward Len, replace on re-insert, and Remove cleanly.
	// Keeping them out of the spatial partition also keeps their ±Inf
	// coordinates from poisoning split medians with NaN.
	empty map[QueryID]struct{}
	// LeafCapacity is the resident count that triggers a leaf split
	// (default 8).
	LeafCapacity int
	// MaxDepth bounds splitting (default 24).
	MaxDepth int
}

type treeNode struct {
	// splitX: vertical split line at splitVal (children partition x);
	// otherwise horizontal (children partition y). Leaves have no
	// children.
	splitX   bool
	splitVal float64
	lo, hi   *treeNode
	parent   *treeNode
	depth    int
	// resident regions: either spanning the split line, or stored in a
	// leaf.
	resident []entry
}

// NewTree returns an empty dynamic cascade tree.
func NewTree() *Tree {
	return &Tree{
		root:         &treeNode{},
		byID:         make(map[QueryID]*treeNode),
		empty:        make(map[QueryID]struct{}),
		LeafCapacity: 8,
		MaxDepth:     24,
	}
}

func (t *Tree) Len() int { return len(t.byID) + len(t.empty) }

// Insert registers a region, splitting and rebuilding as needed.
func (t *Tree) Insert(id QueryID, r geom.Rect) {
	if _, exists := t.byID[id]; exists {
		t.Remove(id)
	}
	delete(t.empty, id)
	if r.Empty() {
		t.empty[id] = struct{}{}
		return
	}
	t.insertAt(t.root, entry{id, r})
	t.mutations++
	t.maybeRebuild()
}

// insertAt descends from n to the deepest node whose cell contains the
// region (i.e. until the region spans a split line or a leaf is reached).
func (t *Tree) insertAt(n *treeNode, e entry) {
	for {
		if n.lo == nil { // leaf
			n.resident = append(n.resident, e)
			t.byID[e.id] = n
			t.maybeSplit(n)
			return
		}
		if n.splitX {
			switch {
			case e.r.MaxX <= n.splitVal:
				n = n.lo
			case e.r.MinX >= n.splitVal:
				n = n.hi
			default: // spans the split line: lives here
				n.resident = append(n.resident, e)
				t.byID[e.id] = n
				return
			}
		} else {
			switch {
			case e.r.MaxY <= n.splitVal:
				n = n.lo
			case e.r.MinY >= n.splitVal:
				n = n.hi
			default:
				n.resident = append(n.resident, e)
				t.byID[e.id] = n
				return
			}
		}
	}
}

// maybeSplit turns an over-full leaf into an internal node split at the
// median of its residents' centers.
func (t *Tree) maybeSplit(n *treeNode) {
	if len(n.resident) <= t.LeafCapacity || n.depth >= t.MaxDepth {
		return
	}
	splitX := n.depth%2 == 0
	// Regions with an infinite extent on the split axis (world rects,
	// half-planes) have a non-finite center there; they would span any
	// finite split line anyway, so they contribute nothing to the median —
	// and a NaN or ±Inf median would make the split line unreachable,
	// silently hiding whole subtrees from Probe.
	centers := make([]float64, 0, len(n.resident))
	for _, e := range n.resident {
		c := e.r.Center()
		v := c.X
		if !splitX {
			v = c.Y
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			centers = append(centers, v)
		}
	}
	if len(centers) < 2 {
		return
	}
	sort.Float64s(centers)
	median := centers[len(centers)/2]
	// Degenerate median (all centers equal) cannot split usefully.
	if centers[0] == centers[len(centers)-1] {
		return
	}
	n.splitX = splitX
	n.splitVal = median
	n.lo = &treeNode{parent: n, depth: n.depth + 1}
	n.hi = &treeNode{parent: n, depth: n.depth + 1}
	old := n.resident
	n.resident = nil
	for _, e := range old {
		delete(t.byID, e.id)
		t.insertAt(n, e)
	}
}

// Remove deregisters a region.
func (t *Tree) Remove(id QueryID) {
	if _, ok := t.empty[id]; ok {
		delete(t.empty, id)
		return
	}
	n, exists := t.byID[id]
	if !exists {
		return
	}
	delete(t.byID, id)
	for i := range n.resident {
		if n.resident[i].id == id {
			n.resident = append(n.resident[:i], n.resident[i+1:]...)
			break
		}
	}
	t.mutations++
	t.maybeRebuild()
}

// maybeRebuild reconstructs the partition after heavy churn.
func (t *Tree) maybeRebuild() {
	if t.mutations <= len(t.byID)+16 {
		return
	}
	entries := make([]entry, 0, len(t.byID))
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if n == nil {
			return
		}
		for _, e := range n.resident {
			// byID is the authority on where an id lives: a resident entry
			// whose id maps elsewhere (or nowhere) is stale and must not be
			// carried into the rebuilt partition, where it would become
			// routable again.
			if t.byID[e.id] == n {
				entries = append(entries, e)
			}
		}
		walk(n.lo)
		walk(n.hi)
	}
	walk(t.root)
	t.root = &treeNode{}
	t.byID = make(map[QueryID]*treeNode, len(entries))
	t.mutations = 0
	for _, e := range entries {
		t.insertAt(t.root, e)
	}
}

// Probe visits every subtree whose cell intersects q.
func (t *Tree) Probe(q geom.Rect, out []QueryID) []QueryID {
	if q.Empty() {
		return out
	}
	var visit func(n *treeNode)
	visit = func(n *treeNode) {
		if n == nil {
			return
		}
		for _, e := range n.resident {
			if e.r.Intersects(q) {
				out = append(out, e.id)
			}
		}
		if n.lo == nil {
			return
		}
		// Closed-interval intersection: a probe whose edge lies exactly on
		// the split line still touches regions on the far side that end on
		// the same line (Rect.Intersects counts shared edges), so both
		// comparisons are inclusive.
		if n.splitX {
			if q.MinX <= n.splitVal {
				visit(n.lo)
			}
			if q.MaxX >= n.splitVal {
				visit(n.hi)
			}
		} else {
			if q.MinY <= n.splitVal {
				visit(n.lo)
			}
			if q.MaxY >= n.splitVal {
				visit(n.hi)
			}
		}
	}
	visit(t.root)
	return out
}
