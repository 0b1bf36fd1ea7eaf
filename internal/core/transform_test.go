package core

import (
	"math"
	"testing"

	"geostreams/internal/geom"
	"geostreams/internal/imagealg"
	"geostreams/internal/stream"
)

func TestValueTransformPointwise(t *testing.T) {
	lat := sectorLattice(t, 8, 4)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(c + r) })
	op := ValueTransform{Fn: imagealg.Scale(2, 1), Label: "2x+1"}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)
	pts := dataPoints(got)
	for r := 0; r < lat.H; r++ {
		for c := 0; c < lat.W; c++ {
			want := float64(c+r)*2 + 1
			if v := pts[lat.Coord(c, r)]; v != want {
				t.Fatalf("(%d,%d) = %g, want %g", c, r, v, want)
			}
		}
	}
	if st.PeakBufferedPoints() != 0 {
		t.Fatal("point-wise value transform must not buffer")
	}
}

func TestValueTransformRenamesBandAndRange(t *testing.T) {
	op := ValueTransform{
		Fn: func(v float64) float64 { return v }, Label: "id", OutBand: "gray",
		Rerange: true, OutMin: 0, OutMax: 255,
	}
	out, err := op.OutInfo(rowInfo("vis", sectorLattice(t, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Band != "gray" || out.VMin != 0 || out.VMax != 255 {
		t.Fatalf("OutInfo = %+v", out)
	}
	if _, err := (ValueTransform{}).OutInfo(stream.Info{}); err == nil {
		t.Fatal("nil function must be rejected")
	}
}

func TestValueTransformPointChunks(t *testing.T) {
	pts := []stream.PointValue{{P: pt(0, 0, 1), V: 3}, {P: pt(1, 0, 2), V: 4}}
	ch, err := stream.NewPointsChunk(pts)
	if err != nil {
		t.Fatal(err)
	}
	info := stream.Info{Band: "z", CRS: mustCRS(t, "latlon"), Org: stream.PointByPoint, VMax: 10}
	op := ValueTransform{Fn: imagealg.Scale(10, 0), Label: "x10"}
	got, _ := runUnary(t, op, info, []*stream.Chunk{ch})
	if got[0].Points[0].V != 30 || got[0].Points[1].V != 40 {
		t.Fatalf("got %+v", got[0].Points)
	}
}

func TestStretchLinearPerFrame(t *testing.T) {
	lat := sectorLattice(t, 10, 5)
	// Two sectors with different value ranges: the stretch must fit each
	// frame separately (frame 1: 0..49, frame 2: 100..149).
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(r*10 + c) })
	chunks = append(chunks, rowChunks(t, lat, 2, func(c, r int) float64 { return 100 + float64(r*10+c) })...)

	op := Stretch{Kind: StretchLinear, OutMin: 0, OutMax: 255}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)

	byT := map[geom.Timestamp][]*stream.Chunk{}
	for _, c := range got {
		if c.Kind == stream.KindGrid {
			byT[c.T] = append(byT[c.T], c)
		}
	}
	for ts, cs := range byT {
		_, lo, hi, _ := cs[0].ValueStats()
		for _, c := range cs[1:] {
			_, l, h, _ := c.ValueStats()
			lo, hi = math.Min(lo, l), math.Max(hi, h)
		}
		if lo != 0 || hi != 255 {
			t.Fatalf("sector %d stretched to [%g, %g], want [0, 255]", ts, lo, hi)
		}
	}
	// §3.2: peak buffer equals one frame.
	if st.PeakBufferedPoints() != int64(lat.NumPoints()) {
		t.Fatalf("peak buffer = %d, want one frame = %d",
			st.PeakBufferedPoints(), lat.NumPoints())
	}
}

func TestStretchFlushesOnTimestampChangeWithoutEOS(t *testing.T) {
	lat := sectorLattice(t, 4, 2)
	// No punctuation at all: the operator must still flush on the
	// timestamp change and at stream end.
	var chunks []*stream.Chunk
	for ts := geom.Timestamp(1); ts <= 2; ts++ {
		for r := 0; r < lat.H; r++ {
			vals := []float64{0, 1, 2, 3}
			ch, err := stream.NewGridChunk(ts, lat.Row(r), vals)
			if err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, ch)
		}
	}
	op := Stretch{Kind: StretchLinear, OutMin: 0, OutMax: 100}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
	if countDataPoints(got) != 16 {
		t.Fatalf("points out = %d, want 16", countDataPoints(got))
	}
}

func TestStretchEqualizeAndGaussianRun(t *testing.T) {
	lat := sectorLattice(t, 32, 8)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 {
		return math.Pow(float64(c)/31, 3) * 100 // skewed
	})
	for _, kind := range []StretchKind{StretchEqualize, StretchGaussian} {
		op := Stretch{Kind: kind, OutMin: 0, OutMax: 255}
		got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
		n, lo, hi, _ := got[0].ValueStats()
		_ = n
		for _, c := range got[1:] {
			if c.Kind != stream.KindGrid {
				continue
			}
			_, l, h, _ := c.ValueStats()
			lo, hi = math.Min(lo, l), math.Max(hi, h)
		}
		if lo < -1 || hi > 256 {
			t.Fatalf("%v output range [%g, %g] outside target", kind, lo, hi)
		}
		if countDataPoints(got) != lat.NumPoints() {
			t.Fatalf("%v lost points", kind)
		}
	}
}

// TestStretchBuffersOneFrame: §3.2 — "the cost of a stretch transform
// operator is determined by the size of the largest frame". Every stretch
// kind buffers exactly one frame at every frame size; a point-wise map,
// the contrast, buffers nothing.
func TestStretchBuffersOneFrame(t *testing.T) {
	for _, size := range [][2]int{{8, 4}, {16, 8}, {32, 16}} {
		lat := sectorLattice(t, size[0], size[1])
		sectors := func() []*stream.Chunk {
			var chunks []*stream.Chunk
			for ts := geom.Timestamp(1); ts <= 2; ts++ {
				chunks = append(chunks, rowChunks(t, lat, ts, func(c, r int) float64 { return float64(r*lat.W + c) })...)
			}
			return chunks
		}
		_, st := runUnary(t, ValueTransform{Fn: imagealg.Scale(2, 1), Label: "2x+1"}, rowInfo("vis", lat), sectors())
		if peak := st.PeakBufferedPoints(); peak != 0 {
			t.Fatalf("%dx%d: point-wise map buffered %d points", lat.W, lat.H, peak)
		}
		for _, kind := range []StretchKind{StretchLinear, StretchEqualize, StretchGaussian} {
			_, st := runUnary(t, Stretch{Kind: kind, OutMin: 0, OutMax: 255}, rowInfo("vis", lat), sectors())
			if peak := st.PeakBufferedPoints(); peak != int64(lat.NumPoints()) {
				t.Fatalf("%dx%d: %v peak buffer = %d, want one frame = %d",
					lat.W, lat.H, kind, peak, lat.NumPoints())
			}
		}
	}
}

func TestStretchValidation(t *testing.T) {
	if _, err := (Stretch{Kind: StretchLinear, OutMin: 5, OutMax: 5}).OutInfo(stream.Info{}); err == nil {
		t.Fatal("empty output range must be rejected")
	}
	if _, err := ParseStretchKind("bogus"); err != nil {
		// expected
	} else {
		t.Fatal("bogus stretch kind must fail")
	}
	for _, s := range []string{"linear", "equalize", "histeq", "gaussian"} {
		if _, err := ParseStretchKind(s); err != nil {
			t.Fatalf("ParseStretchKind(%q): %v", s, err)
		}
	}
}

func TestZoomInValues(t *testing.T) {
	lat := sectorLattice(t, 3, 2)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(r*3 + c) })
	op := ZoomIn{K: 2}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)

	var dataChunks []*stream.Chunk
	for _, c := range got {
		if c.Kind == stream.KindGrid {
			dataChunks = append(dataChunks, c)
		}
	}
	total := 0
	for _, c := range dataChunks {
		total += c.NumPoints()
		// Each output chunk's lattice is 2x refined.
		if c.Grid.Lat.W != lat.W*2 {
			t.Fatalf("zoomed width = %d", c.Grid.Lat.W)
		}
	}
	if total != lat.NumPoints()*4 {
		t.Fatalf("zoom-in points = %d, want %d", total, lat.NumPoints()*4)
	}
	// §3.2: no buffering needed for zoom-in.
	if st.PeakBufferedPoints() != 0 {
		t.Fatal("zoom-in must not buffer")
	}
	// Every refined block replicates its source value. The first output
	// row corresponds to source row 0.
	first := dataChunks[0]
	if first.Grid.Vals[0] != 0 || first.Grid.Vals[1] != 0 || first.Grid.Vals[2] != 1 {
		t.Fatalf("replication wrong: %v", first.Grid.Vals)
	}
	// Punctuation extent is refined too.
	last := got[len(got)-1]
	if last.Kind != stream.KindEndOfSector || last.Sector.Extent.W != 6 || last.Sector.Extent.H != 4 {
		t.Fatalf("EOS extent = %+v", last.Sector)
	}
}

func TestZoomInLatticeGeometry(t *testing.T) {
	lat := sectorLattice(t, 4, 4)
	z := zoomInLattice(lat, 3)
	// The refined lattice must cover the same cell bounds.
	// r covers s exactly when r.Union(s) == r.
	covers := func(r, s geom.Rect) bool { return r.Union(s) == r }
	if !covers(lat.CellBounds().Expand(1e-9), z.CellBounds()) ||
		!covers(z.CellBounds().Expand(1e-9), lat.CellBounds()) {
		t.Fatalf("cell bounds changed: %v vs %v", lat.CellBounds(), z.CellBounds())
	}
	// Block centroids coincide with source points: mean of refined points
	// k*i..k*i+k-1 equals source point i.
	cx := (z.Coord(0, 0).X + z.Coord(2, 0).X) / 2
	if math.Abs(cx-lat.Coord(0, 0).X) > 1e-12 {
		t.Fatalf("block centroid %g != source x %g", cx, lat.Coord(0, 0).X)
	}
}

func TestZoomOutMeansBlocks(t *testing.T) {
	lat := sectorLattice(t, 4, 4)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(r*4 + c) })
	op := ZoomOut{K: 2}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)

	var vals []float64
	for _, c := range got {
		if c.Kind == stream.KindGrid {
			vals = append(vals, c.Grid.Vals...)
		}
	}
	// 2x2 block means: rows (0,1) cols (0,1) -> mean(0,1,4,5) = 2.5, etc.
	want := []float64{2.5, 4.5, 10.5, 12.5}
	if len(vals) != 4 {
		t.Fatalf("zoom-out produced %d values: %v", len(vals), vals)
	}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-12) {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// §3.2 / Fig. 2a: buffering k rows.
	if st.PeakBufferedPoints() != int64(2*lat.W) {
		t.Fatalf("peak buffer = %d, want k rows = %d", st.PeakBufferedPoints(), 2*lat.W)
	}
}

// TestZoomBuffersKRows: §3.2 / Fig. 2a — zoom-in refines each row as it
// arrives and buffers nothing; zoom-out by k buffers exactly k rows.
func TestZoomBuffersKRows(t *testing.T) {
	lat := sectorLattice(t, 16, 16)
	for _, k := range []int{2, 3, 4, 8} {
		chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return float64(c) })
		_, st := runUnary(t, ZoomIn{K: k}, rowInfo("vis", lat), chunks)
		if peak := st.PeakBufferedPoints(); peak != 0 {
			t.Fatalf("zoom-in k=%d buffered %d points", k, peak)
		}
		chunks = rowChunks(t, lat, 1, func(c, r int) float64 { return float64(c) })
		_, st = runUnary(t, ZoomOut{K: k}, rowInfo("vis", lat), chunks)
		if peak := st.PeakBufferedPoints(); peak != int64(k*lat.W) {
			t.Fatalf("zoom-out k=%d: peak buffer = %d, want k rows = %d", k, peak, k*lat.W)
		}
	}
}

func TestZoomOutPartialBlocks(t *testing.T) {
	// 5x5 with k=2: trailing row/col blocks average over what exists.
	lat := sectorLattice(t, 5, 5)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return 1 })
	op := ZoomOut{K: 2}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
	n := 0
	for _, c := range got {
		if c.Kind == stream.KindGrid {
			n += c.NumPoints()
			for _, v := range c.Grid.Vals {
				if v != 1 {
					t.Fatalf("constant field must stay constant, got %g", v)
				}
			}
		}
	}
	if n != 9 { // ceil(5/2)^2
		t.Fatalf("output points = %d, want 9", n)
	}
}

func TestZoomOutImageByImage(t *testing.T) {
	lat := sectorLattice(t, 6, 6)
	chunks := frameChunk(t, lat, 1, func(c, r int) float64 { return float64(c) })
	info := rowInfo("vis", lat)
	info.Org = stream.ImageByImage
	op := ZoomOut{K: 3}
	got, _ := runUnary(t, op, info, chunks)
	var vals []float64
	for _, c := range got {
		if c.Kind == stream.KindGrid {
			vals = append(vals, c.Grid.Vals...)
		}
	}
	// Column means: (0+1+2)/3=1, (3+4+5)/3=4, per output row.
	want := []float64{1, 4, 1, 4}
	if len(vals) != 4 {
		t.Fatalf("got %v", vals)
	}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-12) {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestZoomValidation(t *testing.T) {
	if _, err := (ZoomIn{K: 1}).OutInfo(stream.Info{}); err == nil {
		t.Fatal("k=1 must be rejected")
	}
	if _, err := (ZoomOut{K: 0}).OutInfo(stream.Info{}); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	info := stream.Info{Org: stream.PointByPoint}
	if _, err := (ZoomIn{K: 2}).OutInfo(info); err == nil {
		t.Fatal("point-by-point zoom must be rejected")
	}
}

// Property: zoom-out(k) after zoom-in(k) restores the original values (the
// refined blocks are constant, so their means are the originals).
func TestZoomRoundTrip(t *testing.T) {
	lat := sectorLattice(t, 6, 4)
	orig := func(c, r int) float64 { return float64(r*17 + c*3) }
	chunks := rowChunks(t, lat, 1, orig)
	for _, k := range []int{2, 3} {
		zin, _ := runUnary(t, ZoomIn{K: k}, rowInfo("vis", lat), chunks)
		info2, err := (ZoomIn{K: k}).OutInfo(rowInfo("vis", lat))
		if err != nil {
			t.Fatal(err)
		}
		zout, _ := runUnary(t, ZoomOut{K: k}, info2, zin)
		pts := dataPoints(zout)
		if len(pts) != lat.NumPoints() {
			t.Fatalf("k=%d round trip points = %d, want %d", k, len(pts), lat.NumPoints())
		}
		for r := 0; r < lat.H; r++ {
			for c := 0; c < lat.W; c++ {
				p := lat.Coord(c, r)
				v, ok := pts[p]
				if !ok {
					// The round-tripped lattice may have microscopic float
					// offsets; find by tolerance.
					found := false
					for q, qv := range pts {
						if q.AlmostEq(p, 1e-9) {
							v, ok, found = qv, true, true
							break
						}
					}
					if !found {
						t.Fatalf("k=%d missing point (%d,%d)", k, c, r)
					}
				}
				if ok && !almostEq(v, orig(c, r), 1e-9) {
					t.Fatalf("k=%d value at (%d,%d) = %g, want %g", k, c, r, v, orig(c, r))
				}
			}
		}
	}
}
