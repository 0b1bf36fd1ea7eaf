package core

import (
	"math"
	"testing"

	"geostreams/internal/geom"
	"geostreams/internal/stream"
	"geostreams/internal/valueset"
)

func TestSpatialRestrictRectCrop(t *testing.T) {
	lat := sectorLattice(t, 10, 10)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(r*10 + c) })
	// Region covering columns 2..5 and rows 3..6 (y = (9-r)*0.01).
	rect := geom.R(0.02, 0.03, 0.05, 0.06)
	op := SpatialRestrict{Region: geom.NewRectRegion(rect)}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)

	pts := dataPoints(got)
	want := 0
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			p := lat.Coord(c, r)
			if rect.Contains(p) {
				want++
				v, ok := pts[p]
				if !ok {
					t.Fatalf("missing selected point (%d,%d)", c, r)
				}
				if v != float64(r*10+c) {
					t.Fatalf("value at (%d,%d) = %g", c, r, v)
				}
			} else if _, ok := pts[p]; ok {
				t.Fatalf("unselected point (%d,%d) leaked through", c, r)
			}
		}
	}
	if len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	// §3.1: zero intermediate storage.
	if st.PeakBufferedPoints() != 0 {
		t.Fatalf("spatial restriction buffered %d points, want 0", st.PeakBufferedPoints())
	}
	// Punctuation flows through.
	last := got[len(got)-1]
	if last.Kind != stream.KindEndOfSector {
		t.Fatal("punctuation lost")
	}
}

func TestSpatialRestrictNonRectRegion(t *testing.T) {
	lat := sectorLattice(t, 20, 20)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return 1 })
	// Radius chosen off the lattice spacing so no lattice point sits
	// exactly on the boundary (which would make membership ulp-sensitive).
	disk := geom.Disk(0.10, 0.10, 0.0512)
	op := SpatialRestrict{Region: disk}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
	pts := dataPoints(got)
	for r := 0; r < 20; r++ {
		for c := 0; c < 20; c++ {
			p := lat.Coord(c, r)
			_, ok := lookupNear(pts, p, 1e-9)
			if ok != disk.Contains(p) {
				t.Fatalf("membership mismatch at %v: got %v", p, ok)
			}
		}
	}
}

func TestSpatialRestrictDisjointDropsChunks(t *testing.T) {
	lat := sectorLattice(t, 8, 8)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return 5 })
	op := SpatialRestrict{Region: geom.NewRectRegion(geom.R(100, 100, 101, 101))}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)
	if countDataPoints(got) != 0 {
		t.Fatal("disjoint restriction must drop all data")
	}
	// Only punctuation remains.
	if len(got) != 1 || got[0].Kind != stream.KindEndOfSector {
		t.Fatalf("got %d chunks", len(got))
	}
	if st.PointsOut.Load() != 0 {
		t.Fatal("stats must show zero points out")
	}
}

func TestSpatialRestrictPointChunks(t *testing.T) {
	pts := []stream.PointValue{
		{P: pt(1, 1, 0), V: 10},
		{P: pt(5, 5, 0), V: 20},
		{P: pt(9, 9, 0), V: 30},
	}
	ch, err := stream.NewPointsChunk(pts)
	if err != nil {
		t.Fatal(err)
	}
	info := stream.Info{Band: "z", CRS: mustCRS(t, "latlon"), Org: stream.PointByPoint, VMax: 100}
	op := SpatialRestrict{Region: geom.NewRectRegion(geom.R(0, 0, 6, 6))}
	got, _ := runUnary(t, op, info, []*stream.Chunk{ch})
	if len(got) != 1 || len(got[0].Points) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got[0].Points[1].V != 20 {
		t.Fatal("wrong surviving points")
	}
}

func TestSpatialRestrictValidation(t *testing.T) {
	if _, err := (SpatialRestrict{}).OutInfo(stream.Info{}); err == nil {
		t.Fatal("nil region must be rejected")
	}
}

func TestTemporalRestrict(t *testing.T) {
	lat := sectorLattice(t, 4, 4)
	var chunks []*stream.Chunk
	for ts := geom.Timestamp(0); ts < 6; ts++ {
		chunks = append(chunks, rowChunks(t, lat, ts, func(c, r int) float64 { return float64(ts) })...)
	}
	op := TemporalRestrict{Times: geom.NewInterval(2, 4)}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)
	for _, c := range got {
		if c.Kind == stream.KindGrid && (c.T < 2 || c.T >= 4) {
			t.Fatalf("chunk with t=%d leaked", c.T)
		}
	}
	// 2 sectors × 16 points survive.
	if n := countDataPoints(got); n != 32 {
		t.Fatalf("surviving points = %d, want 32", n)
	}
	if st.PeakBufferedPoints() != 0 {
		t.Fatal("temporal restriction must not buffer")
	}
	// Punctuation flows through even for filtered sectors (6 EOS chunks).
	eos := 0
	for _, c := range got {
		if c.Kind == stream.KindEndOfSector {
			eos++
		}
	}
	if eos != 6 {
		t.Fatalf("eos count = %d, want 6", eos)
	}
}

func TestTemporalRestrictPointChunks(t *testing.T) {
	pts := []stream.PointValue{
		{P: pt(0, 0, 5), V: 1},
		{P: pt(1, 0, 10), V: 2},
		{P: pt(2, 0, 15), V: 3},
	}
	ch, err := stream.NewPointsChunk(pts)
	if err != nil {
		t.Fatal(err)
	}
	info := stream.Info{Band: "z", CRS: mustCRS(t, "latlon"), Org: stream.PointByPoint, VMax: 100}
	op := TemporalRestrict{Times: geom.NewInterval(8, 20)}
	got, _ := runUnary(t, op, info, []*stream.Chunk{ch})
	if len(got) != 1 || len(got[0].Points) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got[0].Points[0].V != 2 || got[0].Points[1].V != 3 {
		t.Fatal("wrong surviving points")
	}
}

func TestValueRestrictGrid(t *testing.T) {
	lat := sectorLattice(t, 6, 6)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(c) })
	rng, err := valueset.NewRange(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	op := ValueRestrict{Values: rng}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)
	pts := dataPoints(got)
	for p, v := range pts {
		if v < 2 || v > 4 {
			t.Fatalf("value %g at %v escaped restriction", v, p)
		}
	}
	if len(pts) != 3*6 { // columns 2,3,4 of six rows
		t.Fatalf("surviving points = %d", len(pts))
	}
	if st.PeakBufferedPoints() != 0 {
		t.Fatal("value restriction must not buffer")
	}
}

func TestValueRestrictNoCopyWhenAllPass(t *testing.T) {
	lat := sectorLattice(t, 4, 1)
	ch, err := stream.NewGridChunk(1, lat.Row(0), []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	op := ValueRestrict{Values: valueset.AllValues{}}
	got, _ := runUnary(t, op, rowInfo("vis", lat), []*stream.Chunk{ch})
	if got[0] != ch {
		t.Fatal("all-pass restriction must forward the chunk unchanged")
	}
}

func TestValueRestrictPointChunks(t *testing.T) {
	pts := []stream.PointValue{
		{P: pt(0, 0, 1), V: 1},
		{P: pt(1, 0, 1), V: 50},
	}
	ch, err := stream.NewPointsChunk(pts)
	if err != nil {
		t.Fatal(err)
	}
	info := stream.Info{Band: "z", CRS: mustCRS(t, "latlon"), Org: stream.PointByPoint, VMax: 100}
	op := ValueRestrict{Values: valueset.Above{Threshold: 10}}
	got, _ := runUnary(t, op, info, []*stream.Chunk{ch})
	if len(got) != 1 || len(got[0].Points) != 1 || got[0].Points[0].V != 50 {
		t.Fatalf("got %+v", got)
	}
}

// Restriction algebra: G|R1|R2 == G|(R1 ∩ R2).
func TestRestrictionComposition(t *testing.T) {
	lat := sectorLattice(t, 16, 16)
	mk := func() []*stream.Chunk {
		return rowChunks(t, lat, 1, func(c, r int) float64 { return float64(r*16 + c) })
	}
	r1 := geom.NewRectRegion(geom.R(0.02, 0.02, 0.12, 0.12))
	r2 := geom.Disk(0.07, 0.07, 0.04)

	// Sequential restriction.
	g1, _ := runUnary(t, SpatialRestrict{Region: r1}, rowInfo("v", lat), mk())
	g12, _ := runUnary(t, SpatialRestrict{Region: r2}, rowInfo("v", lat), g1)
	// Merged restriction.
	gm, _ := runUnary(t, SpatialRestrict{Region: geom.Intersect(r1, r2)}, rowInfo("v", lat), mk())

	a, b := dataPoints(g12), dataPoints(gm)
	if len(a) != len(b) {
		t.Fatalf("sequential %d points vs merged %d", len(a), len(b))
	}
	for p, v := range a {
		if bv, ok := b[p]; !ok || bv != v {
			t.Fatalf("mismatch at %v: %g vs %g (ok=%v)", p, v, bv, ok)
		}
	}
}

func TestRestrictionConstantCostPerPoint(t *testing.T) {
	// §3.1: per-point cost independent of the size of the input stream.
	// Verified structurally: the operator holds no cross-chunk state, so
	// processing N sectors buffers nothing.
	lat := sectorLattice(t, 32, 32)
	var chunks []*stream.Chunk
	for ts := geom.Timestamp(0); ts < 10; ts++ {
		chunks = append(chunks, rowChunks(t, lat, ts, func(c, r int) float64 { return 1 })...)
	}
	op := SpatialRestrict{Region: geom.NewRectRegion(geom.R(0, 0, 0.2, 0.2))}
	_, st := runUnary(t, op, rowInfo("vis", lat), chunks)
	if st.PeakBufferedPoints() != 0 {
		t.Fatalf("restriction buffered %d points over 10 sectors", st.PeakBufferedPoints())
	}
	if st.PointsIn.Load() != 10*32*32 {
		t.Fatalf("points in = %d", st.PointsIn.Load())
	}
}

// TestRestrictionsBufferNothing: §3.1 — spatial, temporal and value
// restrictions are non-blocking and need no intermediate storage, however
// many sectors the stream carries.
func TestRestrictionsBufferNothing(t *testing.T) {
	lat := sectorLattice(t, 16, 12)
	rng, err := valueset.NewRange(20, 80)
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name string
		op   stream.Operator
	}{
		{"spatial", SpatialRestrict{Region: geom.NewRectRegion(geom.R(0.02, 0.02, 0.12, 0.09))}},
		{"temporal", TemporalRestrict{Times: geom.NewInterval(1, 3)}},
		{"value", ValueRestrict{Values: rng}},
	}
	for _, o := range ops {
		for _, sectors := range []int{1, 2, 4} {
			var chunks []*stream.Chunk
			for ts := geom.Timestamp(0); ts < geom.Timestamp(sectors); ts++ {
				chunks = append(chunks, rowChunks(t, lat, ts, func(c, r int) float64 { return float64(c * r) })...)
			}
			_, st := runUnary(t, o.op, rowInfo("vis", lat), chunks)
			if peak := st.PeakBufferedPoints(); peak != 0 {
				t.Fatalf("%s restriction over %d sectors buffered %d points", o.name, sectors, peak)
			}
			if in := st.PointsIn.Load(); in != int64(sectors*lat.NumPoints()) {
				t.Fatalf("%s restriction over %d sectors: points in = %d", o.name, sectors, in)
			}
		}
	}
}

func TestValueRestrictNaNNeverSelected(t *testing.T) {
	lat := sectorLattice(t, 2, 1)
	ch, err := stream.NewGridChunk(1, lat.Row(0), []float64{math.NaN(), 5})
	if err != nil {
		t.Fatal(err)
	}
	op := ValueRestrict{Values: valueset.Finite{}}
	got, _ := runUnary(t, op, rowInfo("vis", lat), []*stream.Chunk{ch})
	if countDataPoints(got) != 1 {
		t.Fatal("NaN must not be selected by finite()")
	}
}
