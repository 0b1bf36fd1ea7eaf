package core

import (
	"context"
	"math"
	"testing"

	"geostreams/internal/geom"
	"geostreams/internal/stream"
	"geostreams/internal/valueset"
)

func TestComposeRowByRow(t *testing.T) {
	lat := sectorLattice(t, 8, 6)
	a := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(10 + c) })
	b := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(c) })
	op := Compose{Gamma: valueset.Sub}
	got, st := runBinary(t, op, rowInfo("nir", lat), rowInfo("vis", lat), a, b)

	pts := dataPoints(got)
	if len(pts) != lat.NumPoints() {
		t.Fatalf("composed %d points, want %d", len(pts), lat.NumPoints())
	}
	for _, v := range pts {
		if v != 10 {
			t.Fatalf("nir-vis = %g, want 10", v)
		}
	}
	// §3.3: for a row-by-row organization the operator "only has to buffer
	// a single row of one stream" — in practice a handful of rows, since
	// the inter-stage channels let one source race a few chunks ahead, but
	// always far below a frame (the image-by-image cost).
	maxRows := int64(2*stream.DefaultBuffer + 2)
	if peak := st.PeakBufferedPoints(); peak > maxRows*int64(lat.W) {
		t.Fatalf("row-by-row compose peak buffer = %d points, want <= %d rows", peak, maxRows)
	}
	if st.MatchedSectors.Load() != 1 || st.UnmatchedSectors.Load() != 0 {
		t.Fatalf("sector accounting wrong: %v", st)
	}
}

func TestComposeImageByImageBuffersFrame(t *testing.T) {
	lat := sectorLattice(t, 16, 16)
	mkInfo := func(band string) stream.Info {
		in := rowInfo(band, lat)
		in.Org = stream.ImageByImage
		return in
	}
	a := frameChunk(t, lat, 1, func(c, r int) float64 { return 2 })
	b := frameChunk(t, lat, 1, func(c, r int) float64 { return 3 })

	// Feed A fully before B so the frame must be buffered.
	g := stream.NewGroup(context.Background())
	as := stream.FromChunks(g, mkInfo("nir"), a)
	bs := stream.Generate(g, mkInfo("vis"), func(ctx context.Context, emit func(*stream.Chunk) bool) error {
		for _, c := range b {
			if !emit(c) {
				return nil
			}
		}
		return nil
	})
	out, st, err := stream.Apply2(g, Compose{Gamma: valueset.Mul}, as, bs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.Collect(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	pts := dataPoints(got)
	if len(pts) != lat.NumPoints() {
		t.Fatalf("composed %d points", len(pts))
	}
	for _, v := range pts {
		if v != 6 {
			t.Fatalf("2*3 = %g", v)
		}
	}
	// §3.3: image-by-image must buffer a complete image.
	if peak := st.PeakBufferedPoints(); peak != int64(lat.NumPoints()) {
		t.Fatalf("image compose peak buffer = %d, want %d", peak, lat.NumPoints())
	}
}

func TestComposeMeasurementTimeNeverMatches(t *testing.T) {
	// §3.3: "If incoming points are timestamped based on when the points
	// were measured, a stream composition operator would never produce new
	// image data as respective timestamps would never match."
	lat := sectorLattice(t, 8, 4)
	a := rowChunks(t, lat, 1000, func(c, r int) float64 { return 1 }) // scanned first
	b := rowChunks(t, lat, 2000, func(c, r int) float64 { return 2 }) // scanned after
	ia := rowInfo("nir", lat)
	ib := rowInfo("vis", lat)
	ia.Stamp, ib.Stamp = stream.StampMeasurementTime, stream.StampMeasurementTime
	got, st := runBinary(t, Compose{Gamma: valueset.Add}, ia, ib, a, b)
	if n := countDataPoints(got); n != 0 {
		t.Fatalf("measurement-time composition produced %d points, want 0", n)
	}
	if st.UnmatchedSectors.Load() == 0 {
		t.Fatal("unmatched sectors must be counted")
	}
}

// TestComposeMatchRateAndBuffering: §3.3 across both organizations and
// both stamping policies. With sector-id stamps every point matches;
// image-by-image buffers at least a complete image, row-by-row under half
// of one. With measurement-time stamps no point ever matches. MaxPending
// is set high so shedding cannot stand in for a missed match.
func TestComposeMatchRateAndBuffering(t *testing.T) {
	const sectors = 2
	lat := sectorLattice(t, 16, 32)
	frame := int64(lat.NumPoints())
	for _, org := range []stream.Organization{stream.ImageByImage, stream.RowByRow} {
		for _, stamp := range []stream.StampPolicy{stream.StampSectorID, stream.StampMeasurementTime} {
			var a, b []*stream.Chunk
			for s := geom.Timestamp(1); s <= sectors; s++ {
				ta, tb := s, s
				if stamp == stream.StampMeasurementTime {
					ta, tb = 1000*s, 1000*s+500 // b scanned after a
				}
				if org == stream.ImageByImage {
					a = append(a, frameChunk(t, lat, ta, func(c, r int) float64 { return 3 })...)
					b = append(b, frameChunk(t, lat, tb, func(c, r int) float64 { return 1 })...)
				} else {
					a = append(a, rowChunks(t, lat, ta, func(c, r int) float64 { return 3 })...)
					b = append(b, rowChunks(t, lat, tb, func(c, r int) float64 { return 1 })...)
				}
			}
			ia, ib := rowInfo("nir", lat), rowInfo("vis", lat)
			ia.Org, ib.Org = org, org
			ia.Stamp, ib.Stamp = stamp, stamp
			op := Compose{Gamma: valueset.Sub, MaxPending: 4 * sectors * int(frame)}
			got, st := runBinary(t, op, ia, ib, a, b)
			matched := int64(countDataPoints(got))
			peak := st.PeakBufferedPoints()
			switch {
			case stamp == stream.StampMeasurementTime:
				if matched != 0 {
					t.Fatalf("%v measurement-time: %d points matched, want 0", org, matched)
				}
			case org == stream.ImageByImage:
				if matched != sectors*frame || peak < frame {
					t.Fatalf("image-by-image: matched %d of %d, peak buffer %d; want all and >= frame %d",
						matched, sectors*frame, peak, frame)
				}
			default:
				if matched != sectors*frame || peak >= frame/2 {
					t.Fatalf("row-by-row: matched %d of %d, peak buffer %d; want all and < half frame %d",
						matched, sectors*frame, peak, frame)
				}
			}
		}
	}
}

func TestComposeMixedStampPolicyRejected(t *testing.T) {
	lat := sectorLattice(t, 2, 2)
	ia := rowInfo("a", lat)
	ib := rowInfo("b", lat)
	ib.Stamp = stream.StampMeasurementTime
	if _, err := (Compose{Gamma: valueset.Add}).OutInfo(ia, ib); err == nil {
		t.Fatal("mixed stamping policies must be rejected")
	}
}

func TestComposeCRSMismatchRejected(t *testing.T) {
	lat := sectorLattice(t, 2, 2)
	ia := rowInfo("a", lat)
	ib := rowInfo("b", lat)
	ib.CRS = mustCRS(t, "utm:10")
	if _, err := (Compose{Gamma: valueset.Add}).OutInfo(ia, ib); err == nil {
		t.Fatal("different coordinate systems must be rejected (§3, precondition)")
	}
}

func TestComposeDisjointRegionsProduceNothing(t *testing.T) {
	// §3.3: "it can happen that there is no single point that occurs in
	// both streams [...] when the two streams cover different spatial
	// regions".
	latA := sectorLattice(t, 4, 4)
	latB, err := geom.NewLattice(10, 10.03, 0.01, -0.01, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := rowChunks(t, latA, 1, func(c, r int) float64 { return 1 })
	b := rowChunks(t, latB, 1, func(c, r int) float64 { return 2 })
	got, _ := runBinary(t, Compose{Gamma: valueset.Add}, rowInfo("a", latA), rowInfo("b", latB), a, b)
	if n := countDataPoints(got); n != 0 {
		t.Fatalf("disjoint composition produced %d points", n)
	}
}

func TestComposeGammaSemantics(t *testing.T) {
	lat := sectorLattice(t, 4, 1)
	for _, tc := range []struct {
		gamma valueset.Gamma
		a, b  float64
		want  float64
	}{
		{valueset.Add, 4, 2, 6},
		{valueset.Sub, 4, 2, 2},
		{valueset.Mul, 4, 2, 8},
		{valueset.Div, 4, 2, 2},
		{valueset.Sup, 4, 2, 4},
		{valueset.Inf, 4, 2, 2},
	} {
		a := rowChunks(t, lat, 1, func(c, r int) float64 { return tc.a })
		b := rowChunks(t, lat, 1, func(c, r int) float64 { return tc.b })
		got, _ := runBinary(t, Compose{Gamma: tc.gamma}, rowInfo("a", lat), rowInfo("b", lat), a, b)
		for _, v := range dataPoints(got) {
			if v != tc.want {
				t.Fatalf("%v: got %g, want %g", tc.gamma, v, tc.want)
			}
		}
	}
}

func TestComposeOperandOrderWithFlip(t *testing.T) {
	// Feed the right side first so matching happens on the flipped path;
	// subtraction must still compute a-b, not b-a.
	lat := sectorLattice(t, 4, 2)
	a := rowChunks(t, lat, 1, func(c, r int) float64 { return 10 })
	b := rowChunks(t, lat, 1, func(c, r int) float64 { return 3 })

	g := stream.NewGroup(context.Background())
	// Right side is ready instantly; left side trickles afterwards.
	bs := stream.FromChunks(g, rowInfo("b", lat), b)
	as := stream.Generate(g, rowInfo("a", lat), func(ctx context.Context, emit func(*stream.Chunk) bool) error {
		for _, c := range a {
			if !emit(c) {
				return nil
			}
		}
		return nil
	})
	out, _, err := stream.Apply2(g, Compose{Gamma: valueset.Sub}, as, bs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.Collect(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, v := range dataPoints(got) {
		if v != 7 {
			t.Fatalf("a-b = %g, want 7 (operand order broken)", v)
		}
	}
}

func TestComposePointChunks(t *testing.T) {
	mk := func(base float64) *stream.Chunk {
		pts := []stream.PointValue{
			{P: pt(1, 1, 3), V: base + 1},
			{P: pt(2, 2, 3), V: base + 2},
		}
		c, err := stream.NewPointsChunk(pts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	info := stream.Info{Band: "z", CRS: mustCRS(t, "latlon"), Org: stream.PointByPoint, VMax: 100}
	got, _ := runBinary(t, Compose{Gamma: valueset.Add}, info, info,
		[]*stream.Chunk{mk(10)}, []*stream.Chunk{mk(20)})
	if len(got) != 1 || len(got[0].Points) != 2 {
		t.Fatalf("got %+v", got)
	}
	sum := got[0].Points[0].V + got[0].Points[1].V
	if sum != (11+21)+(12+22) {
		t.Fatalf("point composition wrong: %+v", got[0].Points)
	}
}

func TestComposeSheddingBoundsMemory(t *testing.T) {
	// One side streams many sectors the other side never produces; the
	// pending state must stay under MaxPending.
	lat := sectorLattice(t, 16, 4)
	var a []*stream.Chunk
	for ts := geom.Timestamp(0); ts < 50; ts++ {
		a = append(a, rowChunks(t, lat, ts, func(c, r int) float64 { return 1 })[:lat.H]...)
	}
	op := Compose{Gamma: valueset.Add, MaxPending: 3 * lat.NumPoints()}
	got, st := runBinary(t, op, rowInfo("a", lat), rowInfo("b", lat), a, nil)
	if n := countDataPoints(got); n != 0 {
		t.Fatalf("produced %d points from one-sided input", n)
	}
	if peak := st.PeakBufferedPoints(); peak > int64(4*lat.NumPoints()) {
		t.Fatalf("pending state %d exceeded the cap", peak)
	}
	if st.UnmatchedSectors.Load() == 0 {
		t.Fatal("shedding must be recorded")
	}
}

func TestComposeNaNPropagation(t *testing.T) {
	lat := sectorLattice(t, 2, 1)
	mk := func(vals []float64) []*stream.Chunk {
		c, err := stream.NewGridChunk(1, lat.Row(0), vals)
		if err != nil {
			t.Fatal(err)
		}
		return []*stream.Chunk{c, stream.NewEndOfSector(1, lat)}
	}
	a := mk([]float64{1, math.NaN()})
	b := mk([]float64{2, 5})
	got, _ := runBinary(t, Compose{Gamma: valueset.Add}, rowInfo("a", lat), rowInfo("b", lat), a, b)
	var grid *stream.Chunk
	for _, c := range got {
		if c.Kind == stream.KindGrid {
			grid = c
		}
	}
	if grid == nil {
		t.Fatal("no composed grid")
	}
	if grid.Grid.Vals[0] != 3 || !math.IsNaN(grid.Grid.Vals[1]) {
		t.Fatalf("NaN propagation wrong: %v", grid.Grid.Vals)
	}
}

func TestBuildNDVI(t *testing.T) {
	lat := sectorLattice(t, 12, 8)
	nirF := func(c, r int) float64 { return 80 }
	visF := func(c, r int) float64 { return 20 }
	g := stream.NewGroup(context.Background())
	nir := stream.FromChunks(g, rowInfo("nir", lat), rowChunks(t, lat, 1, nirF))
	vis := stream.FromChunks(g, rowInfo("vis", lat), rowChunks(t, lat, 1, visF))
	ndvi, stats, err := BuildNDVI(g, nir, vis)
	if err != nil {
		t.Fatal(err)
	}
	if ndvi.Info.Band != "ndvi" || ndvi.Info.VMin != -1 || ndvi.Info.VMax != 1 {
		t.Fatalf("ndvi info = %+v", ndvi.Info)
	}
	got, err := stream.Collect(context.Background(), ndvi)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	pts := dataPoints(got)
	if len(pts) != lat.NumPoints() {
		t.Fatalf("ndvi points = %d", len(pts))
	}
	want := (80.0 - 20.0) / (80.0 + 20.0)
	for _, v := range pts {
		if !almostEq(v, want, 1e-12) {
			t.Fatalf("ndvi = %g, want %g", v, want)
		}
	}
	if len(stats) != 3 {
		t.Fatalf("expected 3 composition stats, got %d", len(stats))
	}
}
