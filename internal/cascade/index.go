// Package cascade implements the spatial index the GeoStreams DSMS uses to
// optimize many concurrent continuous queries over one stream (§4 of the
// paper: "multiple queries against a single GeoStream are optimized using
// a dynamic cascade tree structure [10], which acts as a single spatial
// restriction operator and efficiently streams only the point data of
// interest to current continuous queries").
//
// Tree is the dynamic cascade tree itself; Naive is the linear scan every
// DSMS without a shared restriction stage would perform, kept as the
// oracle the tests check Tree against.
package cascade

import "geostreams/internal/geom"

// QueryID identifies a registered continuous query.
type QueryID int64

// Index is a dynamic index over the rectangular regions of registered
// queries. Probe answers "which queries could want data from this
// rectangle" (used to route whole chunks without per-point tests); rects are
// closed, so a zero-area probe asks which queries want one point.
type Index interface {
	// Insert registers a query region. Re-inserting an id replaces it.
	Insert(id QueryID, r geom.Rect)
	// Remove deregisters a query; unknown ids are ignored.
	Remove(id QueryID)
	// Probe appends to out the ids of all regions intersecting r.
	Probe(r geom.Rect, out []QueryID) []QueryID
	// Len returns the number of registered queries.
	Len() int
}

// entry is one registered region.
type entry struct {
	id QueryID
	r  geom.Rect
}

// --- Naive baseline ---------------------------------------------------------

// Naive scans every registered region on every probe — the per-query
// filtering cost model a DSMS without a shared restriction operator pays.
type Naive struct {
	entries map[QueryID]geom.Rect
}

// NewNaive returns an empty naive index.
func NewNaive() *Naive { return &Naive{entries: make(map[QueryID]geom.Rect)} }

func (n *Naive) Len() int { return len(n.entries) }

func (n *Naive) Insert(id QueryID, r geom.Rect) { n.entries[id] = r }
func (n *Naive) Remove(id QueryID)              { delete(n.entries, id) }

func (n *Naive) Probe(q geom.Rect, out []QueryID) []QueryID {
	for id, r := range n.entries {
		if r.Intersects(q) {
			out = append(out, id)
		}
	}
	return out
}
