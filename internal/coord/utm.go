package coord

import (
	"fmt"
	"math"

	"geostreams/internal/geom"
)

// UTM is the Universal Transverse Mercator projection on the WGS-84
// ellipsoid — the re-projection target the paper's example query uses
// (§3.4: "re-project to the UTM coordinate system (f_UTM)"). Coordinates
// are easting/northing in meters with the standard false easting of
// 500,000 m and, for southern-hemisphere zones, false northing of
// 10,000,000 m. The implementation follows the classical Snyder/USGS
// series, accurate to well under a millimeter inside the zone.
type UTM struct {
	Zone  int
	South bool
}

// NewUTM validates the zone number and constructs a UTM CRS.
func NewUTM(zone int, south bool) (UTM, error) {
	if zone < 1 || zone > 60 {
		return UTM{}, fmt.Errorf("coord: UTM zone %d out of range 1..60", zone)
	}
	return UTM{Zone: zone, South: south}, nil
}

func (u UTM) Name() string {
	suffix := "n"
	if u.South {
		suffix = "s"
	}
	return fmt.Sprintf("utm:%d%s", u.Zone, suffix)
}

// centralMeridian returns the zone's central meridian in radians.
func (u UTM) centralMeridian() float64 {
	return (float64(u.Zone)*6 - 183) * deg2rad
}

const (
	utmK0            = 0.9996
	utmFalseEasting  = 500000.0
	utmFalseNorthing = 10000000.0
	// Beyond ±~25° of longitude from the central meridian the series
	// diverges badly; we refuse well before that.
	utmMaxLonDelta = 20.0 * deg2rad
	utmMaxLat      = 84.5
	utmMinLat      = -80.5
)

// meridionalArc returns the distance along the meridian from the equator
// to latitude phi (radians) on the WGS-84 ellipsoid.
func meridionalArc(phi float64) float64 {
	e2 := wgs84E2
	e4 := e2 * e2
	e6 := e4 * e2
	return wgs84A * ((1-e2/4-3*e4/64-5*e6/256)*phi -
		(3*e2/8+3*e4/32+45*e6/1024)*math.Sin(2*phi) +
		(15*e4/256+45*e6/1024)*math.Sin(4*phi) -
		(35*e6/3072)*math.Sin(6*phi))
}

func (u UTM) Forward(lonlat geom.Vec2) (geom.Vec2, error) {
	if err := checkLonLat(lonlat); err != nil {
		return geom.Vec2{}, err
	}
	if lonlat.Y > utmMaxLat || lonlat.Y < utmMinLat {
		return geom.Vec2{}, fmt.Errorf("%w: latitude %g outside UTM domain", ErrOutOfDomain, lonlat.Y)
	}
	phi := lonlat.Y * deg2rad
	lam := lonlat.X * deg2rad
	lam0 := u.centralMeridian()
	dlam := lam - lam0
	// Wrap into (-π, π] so zone 1 and lon 179.9° behave.
	for dlam > math.Pi {
		dlam -= 2 * math.Pi
	}
	for dlam < -math.Pi {
		dlam += 2 * math.Pi
	}
	if math.Abs(dlam) > utmMaxLonDelta {
		return geom.Vec2{}, fmt.Errorf("%w: longitude %g too far from zone %d central meridian",
			ErrOutOfDomain, lonlat.X, u.Zone)
	}

	e2 := wgs84E2
	ep2 := e2 / (1 - e2)
	sinP, cosP := math.Sin(phi), math.Cos(phi)
	tanP := sinP / cosP

	n := wgs84A / math.Sqrt(1-e2*sinP*sinP)
	t := tanP * tanP
	c := ep2 * cosP * cosP
	a := cosP * dlam
	m := meridionalArc(phi)

	a2 := a * a
	a3 := a2 * a
	a4 := a3 * a
	a5 := a4 * a
	a6 := a5 * a

	x := utmK0*n*(a+(1-t+c)*a3/6+(5-18*t+t*t+72*c-58*ep2)*a5/120) + utmFalseEasting
	y := utmK0 * (m + n*tanP*(a2/2+(5-t+9*c+4*c*c)*a4/24+
		(61-58*t+t*t+600*c-330*ep2)*a6/720))
	if u.South {
		y += utmFalseNorthing
	}
	return geom.Vec2{X: x, Y: y}, nil
}

func (u UTM) Inverse(xy geom.Vec2) (geom.Vec2, error) {
	x := xy.X - utmFalseEasting
	y := xy.Y
	if u.South {
		y -= utmFalseNorthing
	}
	if math.Abs(x) > 2.5e6 || math.Abs(y) > 1.05e7 {
		return geom.Vec2{}, fmt.Errorf("%w: UTM coordinates (%g, %g)", ErrOutOfDomain, xy.X, xy.Y)
	}

	e2 := wgs84E2
	ep2 := e2 / (1 - e2)
	// Footpoint latitude via the standard rectifying-latitude series.
	m := y / utmK0
	mu := m / (wgs84A * (1 - e2/4 - 3*e2*e2/64 - 5*e2*e2*e2/256))
	e1 := (1 - math.Sqrt(1-e2)) / (1 + math.Sqrt(1-e2))
	e1p2 := e1 * e1
	e1p3 := e1p2 * e1
	e1p4 := e1p3 * e1
	phi1 := mu +
		(3*e1/2-27*e1p3/32)*math.Sin(2*mu) +
		(21*e1p2/16-55*e1p4/32)*math.Sin(4*mu) +
		(151*e1p3/96)*math.Sin(6*mu) +
		(1097*e1p4/512)*math.Sin(8*mu)

	sin1, cos1 := math.Sin(phi1), math.Cos(phi1)
	tan1 := sin1 / cos1
	c1 := ep2 * cos1 * cos1
	t1 := tan1 * tan1
	n1 := wgs84A / math.Sqrt(1-e2*sin1*sin1)
	r1 := wgs84A * (1 - e2) / math.Pow(1-e2*sin1*sin1, 1.5)
	d := x / (n1 * utmK0)

	d2 := d * d
	d3 := d2 * d
	d4 := d3 * d
	d5 := d4 * d
	d6 := d5 * d

	phi := phi1 - (n1*tan1/r1)*(d2/2-
		(5+3*t1+10*c1-4*c1*c1-9*ep2)*d4/24+
		(61+90*t1+298*c1+45*t1*t1-252*ep2-3*c1*c1)*d6/720)
	lam := u.centralMeridian() + (d-(1+2*t1+c1)*d3/6+
		(5-2*c1+28*t1-3*c1*c1+8*ep2+24*t1*t1)*d5/120)/cos1

	lon := lam * rad2deg
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return geom.Vec2{X: lon, Y: phi * rad2deg}, nil
}
