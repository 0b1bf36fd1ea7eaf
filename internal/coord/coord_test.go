package coord

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"geostreams/internal/geom"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"latlon", "latlon"},
		{"LATLON", "latlon"},
		{"wgs84", "latlon"},
		{"mercator", "mercator"},
		{"utm:10", "utm:10n"},
		{"utm:33s", "utm:33s"},
		{"utm:7n", "utm:7n"},
		{"geos:-75", "geos:-75"},
	}
	for _, c := range cases {
		crs, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if crs.Name() != c.want {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.in, crs.Name(), c.want)
		}
	}
	for _, bad := range []string{"", "bogus", "utm:", "utm:0", "utm:61", "utm:abc", "geos:xyz"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

func TestSame(t *testing.T) {
	a := MustParse("utm:10")
	b := MustParse("utm:10")
	c := MustParse("utm:11")
	if !Same(a, b) || Same(a, c) || Same(a, nil) || !Same(nil, nil) {
		t.Fatal("Same comparisons wrong")
	}
}

func TestLatLonIdentity(t *testing.T) {
	ll := LatLon{}
	v := geom.V2(-121.5, 38.5)
	f, err := ll.Forward(v)
	if err != nil || f != v {
		t.Fatalf("Forward = %v, %v", f, err)
	}
	i, err := ll.Inverse(v)
	if err != nil || i != v {
		t.Fatalf("Inverse = %v, %v", i, err)
	}
	if _, err := ll.Forward(geom.V2(200, 0)); err == nil {
		t.Fatal("lon 200 must be out of domain")
	}
	if _, err := ll.Forward(geom.V2(0, 95)); err == nil {
		t.Fatal("lat 95 must be out of domain")
	}
}

func TestMercatorKnownValues(t *testing.T) {
	m := Mercator{}
	// Equator/prime meridian maps to origin.
	v, err := m.Forward(geom.V2(0, 0))
	if err != nil || math.Abs(v.X) > 1e-9 || math.Abs(v.Y) > 1e-9 {
		t.Fatalf("Forward(0,0) = %v, %v", v, err)
	}
	// x is linear in longitude: 180° -> π·R.
	v, err = m.Forward(geom.V2(180, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.X-math.Pi*wgs84A) > 1e-6 {
		t.Fatalf("x(180°) = %g, want %g", v.X, math.Pi*wgs84A)
	}
	// Web-Mercator square: y(±85.051...) = ±π·R.
	v, err = m.Forward(geom.V2(0, mercMaxLat))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Y-math.Pi*wgs84A) > 1 {
		t.Fatalf("y(maxlat) = %g, want %g", v.Y, math.Pi*wgs84A)
	}
	if _, err := m.Forward(geom.V2(0, 88)); err == nil {
		t.Fatal("lat 88 must be beyond Mercator cutoff")
	}
}

func TestUTMCentralMeridian(t *testing.T) {
	u := MustParse("utm:10") // central meridian -123°
	// On the central meridian the easting is exactly the false easting.
	for _, lat := range []float64{0, 10, 37.5, 60, -45} {
		crs := u
		if lat < 0 {
			crs = MustParse("utm:10s")
		}
		v, err := crs.Forward(geom.V2(-123, lat))
		if err != nil {
			t.Fatalf("Forward(-123, %g): %v", lat, err)
		}
		if math.Abs(v.X-utmFalseEasting) > 1e-6 {
			t.Errorf("easting at CM lat %g = %g, want 500000", lat, v.X)
		}
	}
	// Equator on CM: northing 0 (north) / 10,000,000 (south).
	v, err := u.Forward(geom.V2(-123, 0))
	if err != nil || math.Abs(v.Y) > 1e-6 {
		t.Fatalf("northing at equator = %g, %v", v.Y, err)
	}
	s := MustParse("utm:10s")
	v, err = s.Forward(geom.V2(-123, 0))
	if err != nil || math.Abs(v.Y-utmFalseNorthing) > 1e-6 {
		t.Fatalf("south northing at equator = %g, %v", v.Y, err)
	}
}

func TestUTMScaleFactorAtCM(t *testing.T) {
	// Along the central meridian, d(northing)/d(arc) must equal k0=0.9996.
	u := UTM{Zone: 10}
	p1, err := u.Forward(geom.V2(-123, 40))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := u.Forward(geom.V2(-123, 40.001))
	if err != nil {
		t.Fatal(err)
	}
	arc := meridionalArc(40.001*deg2rad) - meridionalArc(40*deg2rad)
	k := (p2.Y - p1.Y) / arc
	if math.Abs(k-utmK0) > 1e-7 {
		t.Fatalf("scale at CM = %.9f, want %.4f", k, utmK0)
	}
}

func TestUTMEastingSymmetry(t *testing.T) {
	// Longitudes mirrored about the central meridian give mirrored eastings.
	u := UTM{Zone: 10} // CM -123
	for _, d := range []float64{0.5, 1, 2, 3} {
		e, err := u.Forward(geom.V2(-123+d, 35))
		if err != nil {
			t.Fatal(err)
		}
		w, err := u.Forward(geom.V2(-123-d, 35))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs((e.X-utmFalseEasting)+(w.X-utmFalseEasting)) > 1e-6 {
			t.Fatalf("eastings not symmetric at ±%g°: %g vs %g", d, e.X, w.X)
		}
		if math.Abs(e.Y-w.Y) > 1e-6 {
			t.Fatalf("northings differ at ±%g°", d)
		}
	}
}

func TestUTMKnownPoint(t *testing.T) {
	// Sanity-scale check: 1° of longitude at 38°N ≈ 87.8 km on the
	// ellipsoid; the UTM easting difference must be within 0.5% of
	// k0 times that.
	u := UTM{Zone: 10}
	a, err := u.Forward(geom.V2(-123, 38))
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.Forward(geom.V2(-122, 38))
	if err != nil {
		t.Fatal(err)
	}
	nu := wgs84A / math.Sqrt(1-wgs84E2*math.Sin(38*deg2rad)*math.Sin(38*deg2rad))
	want := utmK0 * nu * math.Cos(38*deg2rad) * deg2rad
	if math.Abs((b.X-a.X)-want)/want > 0.005 {
		t.Fatalf("1° easting delta = %g, want ≈ %g", b.X-a.X, want)
	}
}

func TestGEOSSubSatellitePoint(t *testing.T) {
	g := NewGEOS(-75)
	v, err := g.Forward(geom.V2(-75, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.X) > 1e-12 || math.Abs(v.Y) > 1e-12 {
		t.Fatalf("sub-satellite point must map to (0,0), got %v", v)
	}
	ll, err := g.Inverse(geom.V2(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll.X+75) > 1e-9 || math.Abs(ll.Y) > 1e-9 {
		t.Fatalf("Inverse(0,0) = %v, want (-75, 0)", ll)
	}
}

func TestGEOSVisibility(t *testing.T) {
	g := NewGEOS(-75)
	// A point is in the field of view exactly when Forward maps it.
	visible := func(lonlat geom.Vec2) bool {
		_, err := g.Forward(lonlat)
		return err == nil
	}
	// The antipode is definitely not visible.
	if visible(geom.V2(105, 0)) {
		t.Fatal("antipode must not be visible")
	}
	// Points ~80° away in longitude on the equator are near the limb but
	// 110° away is beyond it.
	if visible(geom.V2(-75+110, 0)) {
		t.Fatal("110° off-nadir must not be visible")
	}
	if !visible(geom.V2(-75+60, 0)) {
		t.Fatal("60° off-nadir must be visible")
	}
	// Scan angle far off the disk misses the Earth.
	if _, err := g.Inverse(geom.V2(0.2, 0)); err == nil {
		t.Fatal("scan angle 0.2 rad must miss the Earth disk")
	}
	if !errors.Is(errAsIs(g.Inverse(geom.V2(0.2, 0))), ErrOutOfDomain) {
		t.Fatal("miss must wrap ErrOutOfDomain")
	}
}

func errAsIs(_ geom.Vec2, err error) error { return err }

func TestGEOSNorthSouthAsymmetry(t *testing.T) {
	// Same |lat| north and south must give mirrored y scan angles.
	g := NewGEOS(0)
	n, err := g.Forward(geom.V2(0, 30))
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Forward(geom.V2(0, -30))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Y+s.Y) > 1e-12 || math.Abs(n.X) > 1e-12 || math.Abs(s.X) > 1e-12 {
		t.Fatalf("N/S scan angles not mirrored: %v vs %v", n, s)
	}
}

// Round-trip property: Inverse(Forward(p)) ≈ p for every projection, over
// random in-domain points.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	cases := []struct {
		crs    CRS
		sample func() geom.Vec2
		tolDeg float64
	}{
		{MustParse("mercator"), func() geom.Vec2 {
			return geom.V2(rng.Float64()*360-180, rng.Float64()*160-80)
		}, 1e-9},
		{MustParse("utm:10"), func() geom.Vec2 {
			return geom.V2(-123+rng.Float64()*12-6, rng.Float64()*80) // in-zone north
		}, 1e-6},
		{MustParse("utm:33s"), func() geom.Vec2 {
			return geom.V2(15+rng.Float64()*10-5, -rng.Float64()*75)
		}, 1e-6},
		{NewGEOS(-75), func() geom.Vec2 {
			return geom.V2(-75+rng.Float64()*100-50, rng.Float64()*100-50)
		}, 1e-6},
	}
	for _, c := range cases {
		for i := 0; i < 500; i++ {
			p := c.sample()
			f, err := c.crs.Forward(p)
			if err != nil {
				continue // outside domain, fine for GEOS edges
			}
			back, err := c.crs.Inverse(f)
			if err != nil {
				t.Fatalf("%s: Inverse(Forward(%v)) failed: %v", c.crs.Name(), p, err)
			}
			if !back.AlmostEq(p, c.tolDeg) {
				t.Fatalf("%s: round trip %v -> %v -> %v (tol %g)",
					c.crs.Name(), p, f, back, c.tolDeg)
			}
		}
	}
}

func TestTransform(t *testing.T) {
	// latlon -> UTM -> latlon round trip through Transform.
	ll := MustParse("latlon")
	utm := MustParse("utm:10")
	p := geom.V2(-121.74, 38.54) // Davis, CA
	m, err := Transform(ll, utm, p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Transform(utm, ll, m)
	if err != nil {
		t.Fatal(err)
	}
	if !back.AlmostEq(p, 1e-8) {
		t.Fatalf("round trip via Transform: %v -> %v", p, back)
	}
	// Identity transform is exact.
	same, err := Transform(utm, MustParse("utm:10"), m)
	if err != nil || same != m {
		t.Fatalf("identity transform changed the point: %v", same)
	}
}

func TestMapRectConservative(t *testing.T) {
	// Map a lat/lon rect to UTM; every interior lattice point must land
	// inside the mapped rect.
	ll := MustParse("latlon")
	utm := MustParse("utm:10")
	r := geom.R(-123.5, 37, -121, 39.5)
	mapped, err := MapRect(ll, utm, r, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		p := geom.V2(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
		m, err := Transform(ll, utm, p)
		if err != nil {
			t.Fatal(err)
		}
		if !mapped.Contains(m) {
			t.Fatalf("mapped rect %v does not contain %v (from %v)", mapped, m, p)
		}
	}
}

func TestMapRectIdentityAndEmpty(t *testing.T) {
	ll := MustParse("latlon")
	r := geom.R(0, 0, 1, 1)
	got, err := MapRect(ll, MustParse("latlon"), r, 8)
	if err != nil || got != r {
		t.Fatalf("identity MapRect = %v, %v", got, err)
	}
	e, err := MapRect(ll, MustParse("utm:10"), geom.EmptyRect(), 8)
	if err != nil || !e.Empty() {
		t.Fatalf("empty MapRect = %v, %v", e, err)
	}
	// Entirely out-of-domain rect errors.
	g := NewGEOS(-75)
	if _, err := MapRect(ll, g, geom.R(100, -10, 110, 10), 8); err == nil {
		t.Fatal("unmappable rect must error")
	}
}

func TestMapRegionSemantics(t *testing.T) {
	// A UTM rect region mapped into lat/lon must contain exactly the
	// lat/lon points whose UTM image is inside the original rect.
	ll := MustParse("latlon")
	utm := MustParse("utm:10")
	center, err := Transform(ll, utm, geom.V2(-122, 38))
	if err != nil {
		t.Fatal(err)
	}
	urect := geom.NewRectRegion(geom.R(center.X-30000, center.Y-20000, center.X+30000, center.Y+20000))
	mapped, err := MapRegion(ll, utm, urect)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 1000; i++ {
		p := geom.V2(-122+rng.Float64()*2-1, 38+rng.Float64()*2-1)
		m, err := Transform(ll, utm, p)
		if err != nil {
			t.Fatal(err)
		}
		want := urect.Contains(m)
		if got := mapped.Contains(p); got != want {
			t.Fatalf("mapped membership mismatch at %v: got %v want %v", p, got, want)
		}
		if want && !mapped.Bounds().Contains(p) {
			t.Fatalf("mapped bounds must cover member %v", p)
		}
	}
}
