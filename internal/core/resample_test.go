package core

import (
	"context"
	"math"
	"testing"

	"geostreams/internal/coord"
	"geostreams/internal/geom"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

// identityResample builds a Resample that maps 1:1 within latlon — useful
// for isolating the buffering machinery from projection math.
func identityResample(progressive bool, interp InterpKind) *Resample {
	return &Resample{
		Label:           "identity",
		MapOutToIn:      func(v geom.Vec2) (geom.Vec2, error) { return v, nil },
		MapInToOut:      func(v geom.Vec2) (geom.Vec2, error) { return v, nil },
		TargetForSector: func(l geom.Lattice) (geom.Lattice, error) { return l, nil },
		OutCRS:          coord.LatLon{},
		Interp:          interp,
		Progressive:     progressive,
	}
}

func TestResampleIdentityRoundTrip(t *testing.T) {
	lat := sectorLattice(t, 12, 10)
	fn := func(c, r int) float64 { return float64(r*12 + c) }
	for _, progressive := range []bool{false, true} {
		chunks := rowChunks(t, lat, 1, fn)
		op := identityResample(progressive, Nearest)
		got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
		pts := dataPoints(got)
		if len(pts) != lat.NumPoints() {
			t.Fatalf("progressive=%v: %d points, want %d", progressive, len(pts), lat.NumPoints())
		}
		for r := 0; r < lat.H; r++ {
			for c := 0; c < lat.W; c++ {
				v, ok := lookupNear(pts, lat.Coord(c, r), 1e-9)
				if !ok || v != fn(c, r) {
					t.Fatalf("progressive=%v: (%d,%d) = %g ok=%v", progressive, c, r, v, ok)
				}
			}
		}
	}
}

func TestResampleProgressiveUsesLessBuffer(t *testing.T) {
	// The §3.2 / Fig. 2b claim: identity progressive resampling frees rows
	// as it goes, so its peak buffer is far below the blocking mode's full
	// frame.
	lat := sectorLattice(t, 32, 64)
	fn := func(c, r int) float64 { return float64(c ^ r) }

	chunks := rowChunks(t, lat, 1, fn)
	_, stBlock := runUnary(t, identityResample(false, Nearest), rowInfo("vis", lat), chunks)

	chunks = rowChunks(t, lat, 1, fn)
	_, stProg := runUnary(t, identityResample(true, Nearest), rowInfo("vis", lat), chunks)

	frame := int64(lat.NumPoints())
	if stBlock.PeakBufferedPoints() != frame {
		t.Fatalf("blocking peak = %d, want full frame %d", stBlock.PeakBufferedPoints(), frame)
	}
	if prog := stProg.PeakBufferedPoints(); prog >= frame/4 {
		t.Fatalf("progressive peak = %d, want << frame %d", prog, frame)
	}
}

// TestReprojectGEOSProgressiveUnderHalfFrame: the same §3.2 claim on real
// geometry. A GEOS imager's row sectors over a 2°×2° region are
// reprojected to latlon, where each output row needs a band of tilted
// scan rows: blocking holds the full frame, progressive under half of it.
func TestReprojectGEOSProgressiveUnderHalfFrame(t *testing.T) {
	var peaks [2]int64 // blocking, progressive
	for i, progressive := range []bool{false, true} {
		im, err := sat.NewGOESImager(-75, geom.R(-122, 36, -120, 38), 64, 48, sat.DefaultScene(11), []string{"vis"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := stream.NewGroup(context.Background())
		streams, err := im.Streams(g)
		if err != nil {
			t.Fatal(err)
		}
		src := streams["vis"]
		out, st, err := stream.Apply(g, NewReproject(src.Info.CRS, coord.LatLon{}, Bilinear, progressive), src)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := stream.Drain(context.Background(), out); err != nil {
			t.Fatal(err)
		}
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		peaks[i] = st.PeakBufferedPoints()
	}
	t.Logf("GEOS→latlon peak buffer: blocking %d, progressive %d", peaks[0], peaks[1])
	if peaks[0] != int64(64*48) || peaks[1]*2 >= peaks[0] {
		t.Fatalf("GEOS→latlon peak buffer: blocking %d, progressive %d; want a full frame (%d) and under half of it",
			peaks[0], peaks[1], 64*48)
	}
}

func TestReprojectGEOSToLatLon(t *testing.T) {
	// Build a small sector in GEOS scan angles over the western US and
	// re-project it to lat/lon; values follow a linear function of
	// longitude so correctness is checkable after resampling.
	g := coord.NewGEOS(-75)
	ll := coord.LatLon{}

	// A real imager sector is a rectangle in scan-angle space: take the
	// scan-angle bounding box of the geographic region of interest.
	box, err := coord.MapRect(ll, g, geom.R(-122, 36, -118, 40), 16)
	if err != nil {
		t.Fatal(err)
	}
	w, h := 40, 40
	lat, err := geom.NewLattice(
		box.MinX, box.MaxY,
		box.Width()/float64(w-1), -box.Height()/float64(h-1), w, h)
	if err != nil {
		t.Fatal(err)
	}

	// Value = longitude of the sample (recoverable after reprojection).
	fn := func(col, row int) float64 {
		p, err := g.Inverse(lat.Coord(col, row))
		if err != nil {
			return math.NaN()
		}
		return p.X
	}
	info := rowInfo("vis", lat)
	info.CRS = g

	for _, progressive := range []bool{false, true} {
		op := NewReproject(g, ll, Bilinear, progressive)
		got, _ := runUnary(t, op, info, rowChunks(t, lat, 1, fn))

		outInfo, err := NewReproject(g, ll, Bilinear, progressive).OutInfo(info)
		if err != nil {
			t.Fatal(err)
		}
		if outInfo.CRS.Name() != "latlon" {
			t.Fatalf("output CRS = %s", outInfo.CRS.Name())
		}
		// Resampling error is bounded by a couple of cells in either grid;
		// the source cell is ~0.15° of longitude here.
		tol := 2*outInfo.SectorGeom.DX + 0.3

		checked := 0
		for _, c := range got {
			if c.Kind != stream.KindGrid {
				continue
			}
			c.ForEachPoint(func(p geom.Point, v float64) {
				if math.IsNaN(v) {
					return
				}
				// The value is the source longitude; after reprojection the
				// point's own longitude must match within the tolerance.
				if math.Abs(v-p.S.X) > tol {
					t.Fatalf("progressive=%v: value %g at lon %g (tol %g)",
						progressive, v, p.S.X, tol)
				}
				checked++
			})
		}
		// The curved scan-rect footprint fills only part of its geographic
		// bounding box; expect at least a third of the target grid valid.
		if checked < w*h/3 {
			t.Fatalf("progressive=%v: only %d valid points", progressive, checked)
		}
	}
}

func TestReprojectLatLonToUTM(t *testing.T) {
	ll := coord.LatLon{}
	utm := coord.MustParse("utm:10")
	lat, err := geom.NewLattice(-122.5, 39.0, 0.02, -0.02, 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	info := rowInfo("vis", lat)
	op := NewReproject(ll, utm, Nearest, false)
	got, _ := runUnary(t, op, info, rowChunks(t, lat, 1, func(c, r int) float64 { return 42 }))

	valid := 0
	for _, c := range got {
		if c.Kind != stream.KindGrid {
			continue
		}
		b := c.Grid.Lat.Bounds()
		// UTM coordinates for this area: easting ~500km±, northing ~4.3M.
		if b.MinX < 300000 || b.MaxX > 700000 || b.MinY < 4.2e6 || b.MaxY > 4.4e6 {
			t.Fatalf("output lattice out of UTM range: %v", b)
		}
		c.ForEachPoint(func(_ geom.Point, v float64) {
			if v == 42 {
				valid++
			}
		})
	}
	if valid < 600 {
		t.Fatalf("only %d valid resampled points", valid)
	}
}

func TestResampleWithoutMetadataRequiresBlocking(t *testing.T) {
	lat := sectorLattice(t, 4, 4)
	info := rowInfo("vis", lat)
	info.HasSectorMeta = false
	info.SectorGeom = geom.Lattice{}
	if _, err := identityResample(true, Nearest).OutInfo(info); err == nil {
		t.Fatal("progressive resample without sector metadata must be rejected")
	}
	// Blocking mode works without metadata (discovers geometry at flush).
	op := identityResample(false, Nearest)
	got, _ := runUnary(t, op, info, rowChunks(t, lat, 1, func(c, r int) float64 { return 7 }))
	if countDataPoints(got) != lat.NumPoints() {
		t.Fatalf("blocking resample without metadata lost points: %d", countDataPoints(got))
	}
}

func TestResamplePointChunksMapPointwise(t *testing.T) {
	ll := coord.LatLon{}
	utm := coord.MustParse("utm:10")
	pts := []stream.PointValue{
		{P: pt(-122, 38, 1), V: 5},
		{P: pt(-121.5, 38.5, 2), V: 6},
	}
	ch, err := stream.NewPointsChunk(pts)
	if err != nil {
		t.Fatal(err)
	}
	info := stream.Info{Band: "z", CRS: ll, Org: stream.PointByPoint, VMax: 10}
	op := NewReproject(ll, utm, Nearest, false)
	got, st := runUnary(t, op, info, []*stream.Chunk{ch})
	if len(got) != 1 || len(got[0].Points) != 2 {
		t.Fatalf("got %+v", got)
	}
	for i, pv := range got[0].Points {
		want, err := coord.Transform(ll, utm, pts[i].P.S)
		if err != nil {
			t.Fatal(err)
		}
		if !pv.P.S.AlmostEq(want, 1e-6) || pv.V != pts[i].V {
			t.Fatalf("point %d mapped to %v, want %v", i, pv.P.S, want)
		}
	}
	if st.PeakBufferedPoints() != 0 {
		t.Fatal("point-wise reprojection must not buffer")
	}
}

func TestAffineRotation(t *testing.T) {
	center := geom.V2(1, 1)
	rot := Rotation(math.Pi/2, center)
	// (2,1) rotated 90° about (1,1) -> (1,2).
	got := rot.Apply(geom.V2(2, 1))
	if !got.AlmostEq(geom.V2(1, 2), 1e-12) {
		t.Fatalf("rotation = %v", got)
	}
	inv, err := rot.Invert()
	if err != nil {
		t.Fatal(err)
	}
	back := inv.Apply(got)
	if !back.AlmostEq(geom.V2(2, 1), 1e-12) {
		t.Fatalf("inverse rotation = %v", back)
	}
}

func TestAffineScalingAndSingular(t *testing.T) {
	s := Affine{A11: 2, A22: 3}
	if !s.Apply(geom.V2(1, 1)).AlmostEq(geom.V2(2, 3), 1e-12) {
		t.Fatal("scaling wrong")
	}
	inv, err := s.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Apply(geom.V2(2, 3)).AlmostEq(geom.V2(1, 1), 1e-12) {
		t.Fatal("inverse scaling wrong")
	}
	if _, err := (Affine{}).Invert(); err == nil {
		t.Fatal("singular affine must not invert")
	}
	if (Affine{A11: 1, A22: 1}).Apply(geom.V2(3, 4)) != geom.V2(3, 4) {
		t.Fatal("identity affine wrong")
	}
}

func TestAffineTransformOperator(t *testing.T) {
	// Rotate a sector 90° about its center; a column-gradient field
	// becomes a row-gradient field.
	lat := sectorLattice(t, 21, 21)
	center := lat.Bounds().Center()
	a := Rotation(math.Pi/2, center)
	op, err := NewAffineTransform(a, coord.LatLon{}, Nearest, false)
	if err != nil {
		t.Fatal(err)
	}
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(c) })
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)

	// After rotation, the value must be a function of y, not x: at the
	// output point p, value = column index of inverse-rotated point.
	inv, err := a.Invert()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range got {
		if c.Kind != stream.KindGrid {
			continue
		}
		c.ForEachPoint(func(p geom.Point, v float64) {
			if math.IsNaN(v) {
				return
			}
			src := inv.Apply(p.S)
			col, _, ok := lat.Index(src)
			if !ok {
				return
			}
			if math.Abs(v-float64(col)) > 1.01 {
				t.Fatalf("rotated value at %v = %g, want ≈ %d", p.S, v, col)
			}
			checked++
		})
	}
	if checked < 300 {
		t.Fatalf("only %d checked points", checked)
	}
}

func TestResampleBilinearInterpolates(t *testing.T) {
	// Downstream lattice shifted by half a cell: bilinear must average
	// neighbors of a linear ramp exactly.
	src := sectorLattice(t, 10, 10)
	shifted := src
	shifted.X0 += src.DX / 2
	shifted.W = 9

	op := &Resample{
		Label:           "halfshift",
		MapOutToIn:      func(v geom.Vec2) (geom.Vec2, error) { return v, nil },
		TargetForSector: func(geom.Lattice) (geom.Lattice, error) { return shifted, nil },
		OutCRS:          coord.LatLon{},
		Interp:          Bilinear,
	}
	chunks := rowChunks(t, src, 1, func(c, r int) float64 { return float64(c) })
	got, _ := runUnary(t, op, rowInfo("vis", src), chunks)
	for _, c := range got {
		if c.Kind != stream.KindGrid {
			continue
		}
		lat := c.Grid.Lat
		for i, v := range c.Grid.Vals {
			col := i % lat.W
			want := float64(col) + 0.5 // midpoint of a linear ramp
			if !almostEq(v, want, 1e-9) {
				t.Fatalf("bilinear value[%d] = %g, want %g", i, v, want)
			}
		}
	}
}

func TestTargetLatticeForPreservesDims(t *testing.T) {
	lat := sectorLattice(t, 24, 16)
	tgt, err := TargetLatticeFor(lat, coord.LatLon{}, coord.MustParse("mercator"))
	if err != nil {
		t.Fatal(err)
	}
	if tgt.W != 24 || tgt.H != 16 {
		t.Fatalf("target dims = %dx%d", tgt.W, tgt.H)
	}
	if tgt.DY >= 0 {
		t.Fatal("target lattice must be north-up (DY < 0)")
	}
}
