package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY], the
// "two corner points of a bounding box" form of region specification that
// §3.1 of the paper notes is the common case in practice. A Rect with
// MinX > MaxX or MinY > MaxY is empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R constructs a Rect from two corner points given in any order.
func R(x0, y0, x1, y1 float64) Rect {
	return Rect{
		MinX: math.Min(x0, x1), MinY: math.Min(y0, y1),
		MaxX: math.Max(x0, x1), MaxY: math.Max(y0, y1),
	}
}

// EmptyRect returns a canonical empty rectangle.
func EmptyRect() Rect {
	return Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
}

// WorldRect returns a rectangle covering the whole plane.
func WorldRect() Rect {
	return Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the horizontal extent of r (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the vertical extent of r (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Contains reports whether the point v lies in r (boundary inclusive).
func (r Rect) Contains(v Vec2) bool {
	return v.X >= r.MinX && v.X <= r.MaxX && v.Y >= r.MinY && v.Y <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.Empty() {
		return EmptyRect()
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand grows r by d on every side (shrinks for negative d).
func (r Rect) Expand(d float64) Rect {
	if r.Empty() {
		return r
	}
	out := Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
	if out.Empty() {
		return EmptyRect()
	}
	return out
}

// Center returns the midpoint of r.
func (r Rect) Center() Vec2 { return Vec2{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Corners returns the four corner points of r in counter-clockwise order
// starting at (MinX, MinY).
func (r Rect) Corners() [4]Vec2 {
	return [4]Vec2{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}

func (r Rect) String() string {
	if r.Empty() {
		return "rect(empty)"
	}
	return fmt.Sprintf("rect(%g, %g, %g, %g)", r.MinX, r.MinY, r.MaxX, r.MaxY)
}
