// Package geom provides the point-set layer of the GeoStreams data model:
// 2-D vectors, rectangles, spatial regions, time sets, timestamps, and
// regularly spaced point lattices.
//
// In the paper's terms (Gertz et al., EDBT 2006, §2), a point set is
// X = S × T where S is a regularly spaced lattice in R² and T is a set of
// logical timestamps. This package implements S (Lattice, Region, Rect,
// Vec2) and T (Timestamp, TimeSet) together with the operations on them
// the data model requires.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement in the 2-D spatial domain S. Coordinates
// are expressed in the units of whatever coordinate system the containing
// stream declares (degrees for geographic, meters for UTM, radians of scan
// angle for GEOS).
type Vec2 struct {
	X, Y float64
}

// V2 is shorthand for constructing a Vec2.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// AlmostEq reports whether v and w are within eps in both coordinates.
func (v Vec2) AlmostEq(w Vec2, eps float64) bool {
	return math.Abs(v.X-w.X) <= eps && math.Abs(v.Y-w.Y) <= eps
}

func (v Vec2) String() string { return fmt.Sprintf("(%g, %g)", v.X, v.Y) }

// Timestamp is the logical time component of a point x = (s, t). Depending
// on the stream generator's stamping policy it is either a scan-sector
// identifier or a measurement time; §3.3 of the paper explains why stream
// composition only works with the former.
type Timestamp int64

// Point is a spatio-temporal point x = (s, t) from a point lattice X = S×T.
type Point struct {
	S Vec2
	T Timestamp
}

func (p Point) String() string { return fmt.Sprintf("(%g, %g)@%d", p.S.X, p.S.Y, p.T) }
