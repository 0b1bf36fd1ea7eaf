package core

import (
	"fmt"
	"math"

	"geostreams/internal/coord"
	"geostreams/internal/geom"
)

// TargetLatticeFor derives the output lattice of a re-projection the way
// §3.2 describes: "a regular lattice corresponding in size and aspect to
// the lattice of the original point set X is overlayed over the spatial
// extent of the new point lattice." The source sector's cell bounds are
// conservatively mapped into the target CRS and covered with a north-up
// lattice of the same dimensions.
func TargetLatticeFor(src geom.Lattice, from, to coord.CRS) (geom.Lattice, error) {
	box, err := coord.MapRect(from, to, src.CellBounds(), 16)
	if err != nil {
		return geom.Lattice{}, err
	}
	w, h := src.W, src.H
	dx := box.Width() / float64(w)
	dy := box.Height() / float64(h)
	if dx <= 0 || dy <= 0 {
		return geom.Lattice{}, fmt.Errorf("degenerate target extent %v", box)
	}
	// Lattice points at cell centers, north-up (row 0 at the top).
	return geom.NewLattice(box.MinX+dx/2, box.MaxY-dy/2, dx, -dy, w, h)
}

// NewReproject builds the re-projection spatial transform f_crs of §3.2 /
// §3.4: the output stream's point lattice lives in `to` coordinates. With
// progressive set (requires sector metadata on the input) the operator
// emits output rows as their source rows arrive instead of blocking for
// the whole sector.
func NewReproject(from, to coord.CRS, interp InterpKind, progressive bool) *Resample {
	return &Resample{
		Label: fmt.Sprintf("reproject:%s->%s", from.Name(), to.Name()),
		MapOutToIn: func(v geom.Vec2) (geom.Vec2, error) {
			return coord.Transform(to, from, v)
		},
		MapInToOut: func(v geom.Vec2) (geom.Vec2, error) {
			return coord.Transform(from, to, v)
		},
		TargetForSector: func(extent geom.Lattice) (geom.Lattice, error) {
			return TargetLatticeFor(extent, from, to)
		},
		OutCRS:      to,
		Interp:      interp,
		Progressive: progressive,
	}
}

// Affine is a 2-D affine map  p' = A·p + b  used for the rotation and
// "general affine transformations" §3.2 lists among spatial transforms.
type Affine struct {
	// | A11 A12 |   | B1 |
	// | A21 A22 | + | B2 |
	A11, A12, A21, A22 float64
	B1, B2             float64
}

// Rotation returns the affine map rotating by theta radians around a
// center point.
func Rotation(theta float64, center geom.Vec2) Affine {
	c, s := math.Cos(theta), math.Sin(theta)
	// p' = R(p - center) + center
	return Affine{
		A11: c, A12: -s, A21: s, A22: c,
		B1: center.X - c*center.X + s*center.Y,
		B2: center.Y - s*center.X - c*center.Y,
	}
}

// Apply maps a point through the affine transform.
func (a Affine) Apply(p geom.Vec2) geom.Vec2 {
	return geom.Vec2{
		X: a.A11*p.X + a.A12*p.Y + a.B1,
		Y: a.A21*p.X + a.A22*p.Y + a.B2,
	}
}

// Invert returns the inverse transform; it fails for singular maps.
func (a Affine) Invert() (Affine, error) {
	det := a.A11*a.A22 - a.A12*a.A21
	if math.Abs(det) < 1e-300 {
		return Affine{}, fmt.Errorf("affine transform is singular")
	}
	i11, i12 := a.A22/det, -a.A12/det
	i21, i22 := -a.A21/det, a.A11/det
	return Affine{
		A11: i11, A12: i12, A21: i21, A22: i22,
		B1: -(i11*a.B1 + i12*a.B2),
		B2: -(i21*a.B1 + i22*a.B2),
	}, nil
}

// NewAffineTransform builds the spatial transform applying an affine map
// within a single coordinate system. The output lattice covers the mapped
// extent of each sector with the same dimensions.
func NewAffineTransform(a Affine, crs coord.CRS, interp InterpKind, progressive bool) (*Resample, error) {
	inv, err := a.Invert()
	if err != nil {
		return nil, err
	}
	return &Resample{
		Label:      "affine",
		MapOutToIn: func(v geom.Vec2) (geom.Vec2, error) { return inv.Apply(v), nil },
		MapInToOut: func(v geom.Vec2) (geom.Vec2, error) { return a.Apply(v), nil },
		TargetForSector: func(extent geom.Lattice) (geom.Lattice, error) {
			box := geom.EmptyRect()
			for _, c := range extent.CellBounds().Corners() {
				m := a.Apply(c)
				box = box.Union(geom.Rect{MinX: m.X, MinY: m.Y, MaxX: m.X, MaxY: m.Y})
			}
			dx := box.Width() / float64(extent.W)
			dy := box.Height() / float64(extent.H)
			if dx <= 0 || dy <= 0 {
				return geom.Lattice{}, fmt.Errorf("degenerate affine target extent %v", box)
			}
			return geom.NewLattice(box.MinX+dx/2, box.MaxY-dy/2, dx, -dy, extent.W, extent.H)
		},
		OutCRS:      crs,
		Interp:      interp,
		Progressive: progressive,
	}, nil
}
