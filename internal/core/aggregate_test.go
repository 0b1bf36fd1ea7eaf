package core

import (
	"math"
	"testing"

	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

func TestAggFuncReduce(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, math.NaN()}
	cases := []struct {
		fn   AggFunc
		want float64
	}{
		{AggMean, 14.0 / 5}, {AggMax, 5}, {AggMin, 1}, {AggSum, 14}, {AggCount, 5},
	}
	for _, c := range cases {
		if got := c.fn.reduce(vals); !almostEq(got, c.want, 1e-12) {
			t.Errorf("%v.reduce = %g, want %g", c.fn, got, c.want)
		}
	}
	// All-NaN input: mean/max/min are NaN, count/sum are 0.
	nans := []float64{math.NaN(), math.NaN()}
	if !math.IsNaN(AggMean.reduce(nans)) || AggCount.reduce(nans) != 0 || AggSum.reduce(nans) != 0 {
		t.Fatal("all-NaN reduction wrong")
	}
}

func TestParseAggFunc(t *testing.T) {
	for s, want := range map[string]AggFunc{
		"mean": AggMean, "avg": AggMean, "max": AggMax, "min": AggMin,
		"sum": AggSum, "count": AggCount,
	} {
		got, err := ParseAggFunc(s)
		if err != nil || got != want {
			t.Errorf("ParseAggFunc(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Fatal("unknown agg must fail")
	}
}

func TestTemporalAggregateMean(t *testing.T) {
	lat := sectorLattice(t, 4, 4)
	var chunks []*stream.Chunk
	for ts := geom.Timestamp(1); ts <= 4; ts++ {
		chunks = append(chunks, rowChunks(t, lat, ts, func(c, r int) float64 {
			return float64(ts) * 10
		})...)
	}
	op := &TemporalAggregate{Fn: AggMean, Window: 2}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)

	// Per sector t, output = mean of sectors (t-1, t): 10, 15, 25, 35.
	want := map[geom.Timestamp]float64{1: 10, 2: 15, 3: 25, 4: 35}
	seen := map[geom.Timestamp]bool{}
	for _, c := range got {
		if c.Kind != stream.KindGrid {
			continue
		}
		seen[c.T] = true
		for _, v := range c.Grid.Vals {
			if !almostEq(v, want[c.T], 1e-12) {
				t.Fatalf("aggregate at t=%d = %g, want %g", c.T, v, want[c.T])
			}
		}
	}
	for ts := geom.Timestamp(1); ts <= 4; ts++ {
		if !seen[ts] {
			t.Fatalf("no aggregated frame for sector %d", ts)
		}
	}
	// Space complexity: window × frame.
	if peak := st.PeakBufferedPoints(); peak > int64(3*lat.NumPoints()) {
		t.Fatalf("peak buffer = %d, want <= window+1 frames", peak)
	}
}

// TestTemporalAggregateBufferGrowsWithWindow: an aggregate over the last
// w sectors holds w frames, so its peak buffer grows with the window.
func TestTemporalAggregateBufferGrowsWithWindow(t *testing.T) {
	lat := sectorLattice(t, 4, 4)
	prev := int64(-1)
	for _, window := range []int{1, 2, 3, 4} {
		var chunks []*stream.Chunk
		for ts := geom.Timestamp(1); ts <= 6; ts++ {
			chunks = append(chunks, rowChunks(t, lat, ts, func(c, r int) float64 { return float64(ts) })...)
		}
		_, st := runUnary(t, &TemporalAggregate{Fn: AggMean, Window: window}, rowInfo("vis", lat), chunks)
		peak := st.PeakBufferedPoints()
		if peak <= prev {
			t.Fatalf("window %d: peak buffer %d did not grow past %d", window, peak, prev)
		}
		prev = peak
	}
}

func TestTemporalAggregateMaxWindowEviction(t *testing.T) {
	lat := sectorLattice(t, 2, 2)
	// Values 100, 1, 1, 1 ... with window 2, the 100 must disappear after
	// sector 2.
	vals := []float64{100, 1, 1, 1}
	var chunks []*stream.Chunk
	for i, v := range vals {
		vv := v
		chunks = append(chunks, rowChunks(t, lat, geom.Timestamp(i+1), func(c, r int) float64 {
			return vv
		})...)
	}
	op := &TemporalAggregate{Fn: AggMax, Window: 2}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
	want := map[geom.Timestamp]float64{1: 100, 2: 100, 3: 1, 4: 1}
	for _, c := range got {
		if c.Kind != stream.KindGrid {
			continue
		}
		if c.Grid.Vals[0] != want[c.T] {
			t.Fatalf("max at t=%d = %g, want %g", c.T, c.Grid.Vals[0], want[c.T])
		}
	}
}

func TestTemporalAggregateValidation(t *testing.T) {
	lat := sectorLattice(t, 2, 2)
	if _, err := (&TemporalAggregate{Fn: AggMean, Window: 0}).OutInfo(rowInfo("v", lat)); err == nil {
		t.Fatal("zero window must be rejected")
	}
	noMeta := rowInfo("v", lat)
	noMeta.HasSectorMeta = false
	noMeta.SectorGeom = geom.Lattice{}
	if _, err := (&TemporalAggregate{Fn: AggMean, Window: 2}).OutInfo(noMeta); err == nil {
		t.Fatal("missing sector metadata must be rejected")
	}
	ptInfo := rowInfo("v", lat)
	ptInfo.Org = stream.PointByPoint
	if _, err := (&TemporalAggregate{Fn: AggMean, Window: 2}).OutInfo(ptInfo); err == nil {
		t.Fatal("point organization must be rejected")
	}
}

func TestRegionalAggregateTimeSeries(t *testing.T) {
	lat := sectorLattice(t, 10, 10)
	region := geom.NewRectRegion(geom.R(0.0, 0.0, 0.045, 0.045)) // 5x5 block
	var chunks []*stream.Chunk
	for ts := geom.Timestamp(1); ts <= 3; ts++ {
		chunks = append(chunks, rowChunks(t, lat, ts, func(c, r int) float64 {
			return float64(ts)
		})...)
	}
	op := RegionalAggregate{Fn: AggMean, Region: region}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)

	if len(got) != 3 {
		t.Fatalf("series length = %d, want 3", len(got))
	}
	for i, c := range got {
		if c.Kind != stream.KindPoints || len(c.Points) != 1 {
			t.Fatalf("series element %d = %+v", i, c)
		}
		pv := c.Points[0]
		if pv.P.T != geom.Timestamp(i+1) || pv.V != float64(i+1) {
			t.Fatalf("series[%d] = %+v", i, pv)
		}
		if !region.Bounds().Contains(pv.P.S) {
			t.Fatal("series point must sit at the region centroid")
		}
	}
	// O(1) state regardless of frame size.
	if st.PeakBufferedPoints() != 0 {
		t.Fatalf("regional aggregate buffered %d points", st.PeakBufferedPoints())
	}
}

func TestRegionalAggregateCount(t *testing.T) {
	lat := sectorLattice(t, 10, 10)
	region := geom.NewRectRegion(geom.R(-0.001, -0.001, 0.041, 0.041)) // 5x5 block
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return 1 })
	op := RegionalAggregate{Fn: AggCount, Region: region}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
	if len(got) != 1 || got[0].Points[0].V != 25 {
		t.Fatalf("count = %+v", got)
	}
}

func TestRegionalAggregateEmptyRegionNaN(t *testing.T) {
	lat := sectorLattice(t, 4, 4)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return 1 })
	op := RegionalAggregate{Fn: AggMean, Region: geom.NewRectRegion(geom.R(5, 5, 6, 6))}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
	if len(got) != 1 || !math.IsNaN(got[0].Points[0].V) {
		t.Fatalf("empty-region mean must be NaN: %+v", got)
	}
}

func TestCostModelPredictions(t *testing.T) {
	lat := sectorLattice(t, 100, 50)
	info := rowInfo("vis", lat)

	cases := []struct {
		op    any
		class CostClass
	}{
		{SpatialRestrict{Region: geom.WorldRegion{}}, CostConstant},
		{TemporalRestrict{Times: geom.AllTime{}}, CostConstant},
		{ValueRestrict{}, CostConstant},
		{ValueTransform{}, CostConstant},
		{ZoomIn{K: 2}, CostConstant},
		{ZoomOut{K: 4}, CostRow},
		{Stretch{Kind: StretchLinear}, CostFrame},
		{Compose{}, CostRow},
		{&TemporalAggregate{Window: 4}, CostFrame},
		{RegionalAggregate{}, CostConstant},
	}
	for _, c := range cases {
		est := EstimateCost(c.op, info)
		if est.Class != c.class {
			t.Errorf("EstimateCost(%T) class = %v, want %v", c.op, est.Class, c.class)
		}
	}

	// Organization changes composition cost: image-by-image is frame-class.
	img := info
	img.Org = stream.ImageByImage
	if est := EstimateCost(Compose{}, img); est.Class != CostFrame {
		t.Errorf("image compose class = %v, want frame", est.Class)
	}

	// Resample: progressive < blocking < no-metadata (unbounded).
	prog := EstimateCost(&Resample{Progressive: true}, info)
	block := EstimateCost(&Resample{}, info)
	if prog.Class != CostRow || block.Class != CostFrame {
		t.Errorf("resample classes = %v, %v", prog.Class, block.Class)
	}
	noMeta := info
	noMeta.HasSectorMeta = false
	if est := EstimateCost(&Resample{}, noMeta); est.Class != CostUnbounded {
		t.Errorf("no-metadata resample class = %v, want unbounded", est.Class)
	}

	// Stretch buffer prediction equals the frame size.
	if est := EstimateCost(Stretch{}, info); est.BufferPoints != int64(lat.NumPoints()) {
		t.Errorf("stretch buffer estimate = %d", est.BufferPoints)
	}

	// Cost classes render for EXPLAIN.
	for _, c := range []CostClass{CostConstant, CostRow, CostFrame, CostUnbounded} {
		if c.String() == "" {
			t.Error("empty cost class string")
		}
	}
}
