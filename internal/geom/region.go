package geom

import (
	"fmt"
	"strings"
)

// Region is a point lattice R ⊆ S used by the spatial restriction operator
// G|R (Definition 6). The paper admits three specification styles:
// enumeration of coordinate pairs, constraint (polynomial) expressions, and
// bounding boxes. The query language builds bounding boxes (RectRegion),
// disks (a ConstraintRegion, constraint.go), polygons and the whole plane;
// the optimizer adds intersections and re-projection predicates.
//
// Bounds must return a rectangle containing every point of the region; the
// optimizer and the cascade tree only ever rely on Bounds being
// conservative, never tight.
type Region interface {
	// Contains reports whether the spatial point v is in the region.
	Contains(v Vec2) bool
	// Bounds returns a conservative bounding rectangle.
	Bounds() Rect
	// String renders the region in the query-language syntax.
	String() string
}

// RectRegion is a rectangular region of interest — the common case in
// graphical interfaces per §3.1 of the paper.
type RectRegion struct {
	Rect Rect
}

// NewRectRegion wraps a Rect as a Region.
func NewRectRegion(r Rect) RectRegion { return RectRegion{Rect: r} }

func (r RectRegion) Contains(v Vec2) bool { return r.Rect.Contains(v) }
func (r RectRegion) Bounds() Rect         { return r.Rect }
func (r RectRegion) String() string {
	return fmt.Sprintf("rect(%g, %g, %g, %g)", r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY)
}

// WorldRegion contains every point; restricting to it is the identity.
type WorldRegion struct{}

func (WorldRegion) Contains(Vec2) bool { return true }
func (WorldRegion) Bounds() Rect       { return WorldRect() }
func (WorldRegion) String() string     { return "world()" }

// PolygonRegion is a simple polygon region; membership is tested with the
// even-odd (ray casting) rule. The polygon need not be convex. Vertices are
// given in order; the ring is closed implicitly.
type PolygonRegion struct {
	verts  []Vec2
	bounds Rect
}

// NewPolygonRegion builds a polygon region from at least three vertices.
func NewPolygonRegion(verts []Vec2) (*PolygonRegion, error) {
	if len(verts) < 3 {
		return nil, fmt.Errorf("geom: polygon needs at least 3 vertices, got %d", len(verts))
	}
	b := EmptyRect()
	for _, v := range verts {
		b = b.Union(Rect{MinX: v.X, MinY: v.Y, MaxX: v.X, MaxY: v.Y})
	}
	return &PolygonRegion{verts: append([]Vec2(nil), verts...), bounds: b}, nil
}

// Contains applies the even-odd rule; points exactly on edges may land on
// either side, which is acceptable for raster restriction semantics.
func (p *PolygonRegion) Contains(v Vec2) bool {
	if !p.bounds.Contains(v) {
		return false
	}
	in := false
	n := len(p.verts)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := p.verts[i], p.verts[j]
		if (a.Y > v.Y) != (b.Y > v.Y) {
			xCross := (b.X-a.X)*(v.Y-a.Y)/(b.Y-a.Y) + a.X
			if v.X < xCross {
				in = !in
			}
		}
	}
	return in
}

func (p *PolygonRegion) Bounds() Rect { return p.bounds }

// Vertices returns a copy of the polygon's vertex ring.
func (p *PolygonRegion) Vertices() []Vec2 { return append([]Vec2(nil), p.verts...) }

func (p *PolygonRegion) String() string {
	parts := make([]string, len(p.verts))
	for i, v := range p.verts {
		parts[i] = fmt.Sprintf("%g %g", v.X, v.Y)
	}
	return "polygon(" + strings.Join(parts, ", ") + ")"
}

// IntersectRegion contains the points present in all of its parts. The
// restriction-merge rewrite G|R1|R2 ⇒ G|(R1 ∩ R2) produces these.
type IntersectRegion struct {
	Parts []Region
}

// Intersect combines regions into their set intersection.
func Intersect(parts ...Region) Region {
	switch len(parts) {
	case 0:
		return WorldRegion{}
	case 1:
		return parts[0]
	}
	return IntersectRegion{Parts: parts}
}

func (x IntersectRegion) Contains(v Vec2) bool {
	for _, p := range x.Parts {
		if !p.Contains(v) {
			return false
		}
	}
	return true
}

func (x IntersectRegion) Bounds() Rect {
	b := WorldRect()
	for _, p := range x.Parts {
		b = b.Intersect(p.Bounds())
	}
	return b
}

func (x IntersectRegion) String() string {
	parts := make([]string, len(x.Parts))
	for i, p := range x.Parts {
		parts[i] = p.String()
	}
	return "intersect(" + strings.Join(parts, ", ") + ")"
}

// FuncRegion adapts an arbitrary predicate plus a conservative bounding box
// into a Region. It is the escape hatch used by the re-projection rewrite,
// which wraps "inverse-project then test" as a region.
type FuncRegion struct {
	Fn  func(Vec2) bool
	Box Rect
	Tag string
}

func (f FuncRegion) Contains(v Vec2) bool { return f.Fn(v) }
func (f FuncRegion) Bounds() Rect         { return f.Box }
func (f FuncRegion) String() string {
	if f.Tag != "" {
		return f.Tag
	}
	return "func(" + f.Box.String() + ")"
}
