package coord

import (
	"fmt"
	"math"

	"geostreams/internal/geom"
)

// GEOS is the normalized geostationary-satellite projection (CGMS LRIT/
// HRIT convention). It models the native scan geometry of a GOES-class
// imager: planar coordinates are the instrument's scan angles (radians)
// as seen from a satellite at geostationary altitude above SubLon.
//
// This is the mathematical core of the "GOES Variable Format" coordinate
// system the paper's prototype re-projects out of (§4): the stream
// generator emits lattices in GEOS scan angles and the DSMS's spatial
// transform converts them to latitude/longitude.
//
// Points on the far side of the Earth (not visible from the satellite)
// are out of domain, as are scan angles that miss the Earth disk.
type GEOS struct {
	// SubLon is the sub-satellite longitude in degrees.
	SubLon float64
}

// NewGEOS constructs a geostationary view CRS for the given sub-satellite
// longitude in degrees (GOES-East ≈ -75, GOES-West ≈ -135).
func NewGEOS(subLonDeg float64) GEOS { return GEOS{SubLon: subLonDeg} }

func (g GEOS) Name() string { return fmt.Sprintf("geos:%g", g.SubLon) }

const (
	// geosH is the distance from the Earth's center to a geostationary
	// satellite (meters), the CGMS standard value.
	geosH = 42164000.0
)

// Forward maps (lon°, lat°) to scan angles (x, y) in radians.
func (g GEOS) Forward(lonlat geom.Vec2) (geom.Vec2, error) {
	if err := checkLonLat(lonlat); err != nil {
		return geom.Vec2{}, err
	}
	phi := lonlat.Y * deg2rad
	dlam := (lonlat.X - g.SubLon) * deg2rad
	for dlam > math.Pi {
		dlam -= 2 * math.Pi
	}
	for dlam < -math.Pi {
		dlam += 2 * math.Pi
	}

	// Geocentric latitude on the ellipsoid.
	cLat := math.Atan((wgs84B * wgs84B) / (wgs84A * wgs84A) * math.Tan(phi))
	// Geocentric radius at that latitude.
	rl := wgs84B / math.Sqrt(1-((wgs84A*wgs84A-wgs84B*wgs84B)/(wgs84A*wgs84A))*
		math.Cos(cLat)*math.Cos(cLat))

	r1 := geosH - rl*math.Cos(cLat)*math.Cos(dlam)
	r2 := -rl * math.Cos(cLat) * math.Sin(dlam)
	r3 := rl * math.Sin(cLat)

	// Visibility: the line of sight must not pass through the Earth. The
	// standard CGMS test compares the satellite-to-point vector with the
	// local position vector.
	if r1*(r1-geosH)+r2*r2+r3*r3 > 0 {
		return geom.Vec2{}, fmt.Errorf("%w: (%g, %g) not visible from geos:%g",
			ErrOutOfDomain, lonlat.X, lonlat.Y, g.SubLon)
	}

	rn := math.Sqrt(r1*r1 + r2*r2 + r3*r3)
	return geom.Vec2{
		X: math.Atan(-r2 / r1),
		Y: math.Asin(-r3 / rn),
	}, nil
}

// Inverse maps scan angles (radians) back to (lon°, lat°).
func (g GEOS) Inverse(xy geom.Vec2) (geom.Vec2, error) {
	cosX, sinX := math.Cos(xy.X), math.Sin(xy.X)
	cosY, sinY := math.Cos(xy.Y), math.Sin(xy.Y)

	aa := wgs84A * wgs84A
	bb := wgs84B * wgs84B
	// Quadratic for the slant range along the view ray.
	k := cosY*cosY + (aa/bb)*sinY*sinY
	disc := geosH*geosH*cosX*cosX*cosY*cosY - k*(geosH*geosH-aa)
	if disc < 0 {
		return geom.Vec2{}, fmt.Errorf("%w: scan angle (%g, %g) misses the Earth disk",
			ErrOutOfDomain, xy.X, xy.Y)
	}
	sd := math.Sqrt(disc)
	sn := (geosH*cosX*cosY - sd) / k

	s1 := geosH - sn*cosX*cosY
	s2 := sn * sinX * cosY
	s3 := -sn * sinY
	sxy := math.Hypot(s1, s2)

	lon := math.Atan2(s2, s1)*rad2deg + g.SubLon
	lat := math.Atan((aa/bb)*s3/sxy) * rad2deg
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return geom.Vec2{X: lon, Y: lat}, nil
}
