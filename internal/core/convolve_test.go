package core

import (
	"math"
	"testing"

	"geostreams/internal/geom"
	"geostreams/internal/imagealg"
	"geostreams/internal/stream"
)

func TestBoxFilterConstantField(t *testing.T) {
	lat := sectorLattice(t, 10, 8)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 { return 7 })
	op, err := NewBoxFilter(3)
	if err != nil {
		t.Fatal(err)
	}
	got, st := runUnary(t, op, rowInfo("vis", lat), chunks)
	pts := dataPoints(got)
	if len(pts) != lat.NumPoints() {
		t.Fatalf("points = %d, want %d", len(pts), lat.NumPoints())
	}
	for p, v := range pts {
		if !almostEq(v, 7, 1e-12) {
			t.Fatalf("smoothed constant at %v = %g", p, v)
		}
	}
	// Space claim: kernel-height rows, not a frame.
	if peak := st.PeakBufferedPoints(); peak > int64(4*lat.W) {
		t.Fatalf("box filter peak buffer = %d, want <= ~kernel rows", peak)
	}
}

func TestBoxFilterMatchesBatchConvolution(t *testing.T) {
	// The streaming row-window convolution must agree with the batch
	// imagealg.Convolve (EdgeClamp) on the assembled frame.
	lat := sectorLattice(t, 12, 9)
	fn := func(c, r int) float64 { return float64((c*7+r*13)%23) * 2.5 }
	chunks := rowChunks(t, lat, 1, fn)
	op, err := NewBoxFilter(3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)

	vals := make([]float64, lat.NumPoints())
	for r := 0; r < lat.H; r++ {
		for c := 0; c < lat.W; c++ {
			vals[r*lat.W+c] = fn(c, r)
		}
	}
	k, _ := imagealg.Box(3)
	want, err := imagealg.Convolve(vals, lat.W, lat.H, k, imagealg.EdgeClamp)
	if err != nil {
		t.Fatal(err)
	}
	pts := dataPoints(got)
	for r := 0; r < lat.H; r++ {
		for c := 0; c < lat.W; c++ {
			v, ok := lookupNear(pts, lat.Coord(c, r), 1e-9)
			if !ok {
				t.Fatalf("missing point (%d,%d)", c, r)
			}
			if !almostEq(v, want[r*lat.W+c], 1e-9) {
				t.Fatalf("(%d,%d): stream %g vs batch %g", c, r, v, want[r*lat.W+c])
			}
		}
	}
}

func TestGaussianFilterSmooths(t *testing.T) {
	// Smoothing must reduce variance of a noisy field.
	lat := sectorLattice(t, 32, 16)
	fn := func(c, r int) float64 { return float64((c*37 + r*101) % 17) }
	chunks := rowChunks(t, lat, 1, fn)
	op, err := NewGaussianFilter(5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)

	variance := func(vals []float64) float64 {
		var sum, sumSq float64
		for _, v := range vals {
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(len(vals))
		return sumSq/float64(len(vals)) - mean*mean
	}
	var orig, smoothed []float64
	for r := 0; r < lat.H; r++ {
		for c := 0; c < lat.W; c++ {
			orig = append(orig, fn(c, r))
		}
	}
	for _, c := range got {
		if c.Kind == stream.KindGrid {
			smoothed = append(smoothed, c.Grid.Vals...)
		}
	}
	if variance(smoothed) >= variance(orig)*0.8 {
		t.Fatalf("gaussian filter did not smooth: var %g -> %g", variance(orig), variance(smoothed))
	}
}

func TestGradientDetectsEdge(t *testing.T) {
	lat := sectorLattice(t, 12, 10)
	// Vertical step at column 6.
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 {
		if c >= 6 {
			return 100
		}
		return 0
	})
	got, st := runUnary(t, Gradient{}, rowInfo("vis", lat), chunks)
	pts := dataPoints(got)
	// Gradient is large near the step, zero in flat interior areas.
	edge, _ := lookupNear(pts, lat.Coord(6, 5), 1e-9)
	flat, _ := lookupNear(pts, lat.Coord(2, 5), 1e-9)
	if edge <= 100 || flat != 0 {
		t.Fatalf("gradient edge=%g flat=%g", edge, flat)
	}
	if peak := st.PeakBufferedPoints(); peak > int64(5*lat.W) {
		t.Fatalf("gradient peak buffer = %d, want ~3 rows", peak)
	}
}

func TestGradientNaNPropagation(t *testing.T) {
	lat := sectorLattice(t, 6, 6)
	chunks := rowChunks(t, lat, 1, func(c, r int) float64 {
		if c == 3 && r == 3 {
			return math.NaN()
		}
		return 1
	})
	got, _ := runUnary(t, Gradient{}, rowInfo("vis", lat), chunks)
	pts := map[geom.Vec2]float64{}
	for _, c := range got {
		c.ForEachPoint(func(p geom.Point, v float64) { pts[p.S] = v })
	}
	// Neighborhood of the NaN is NaN; far corner is clean.
	center := pts[lat.Coord(3, 3)]
	if !math.IsNaN(center) {
		t.Fatalf("NaN neighborhood leaked: %g", center)
	}
	if v := pts[lat.Coord(0, 0)]; math.IsNaN(v) {
		t.Fatal("far corner poisoned")
	}
}

func TestConvolveMultiSector(t *testing.T) {
	lat := sectorLattice(t, 8, 6)
	var chunks []*stream.Chunk
	for ts := geom.Timestamp(1); ts <= 3; ts++ {
		v := float64(ts * 10)
		chunks = append(chunks, rowChunks(t, lat, ts, func(c, r int) float64 { return v })...)
	}
	op, err := NewBoxFilter(3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runUnary(t, op, rowInfo("vis", lat), chunks)
	byT := map[geom.Timestamp]int{}
	for _, c := range got {
		if c.Kind != stream.KindGrid {
			continue
		}
		byT[c.T] += c.NumPoints()
		for _, v := range c.Grid.Vals {
			if !almostEq(v, float64(c.T*10), 1e-12) {
				t.Fatalf("sector %d value %g: cross-sector bleed", c.T, v)
			}
		}
	}
	for ts := geom.Timestamp(1); ts <= 3; ts++ {
		if byT[ts] != lat.NumPoints() {
			t.Fatalf("sector %d output points = %d", ts, byT[ts])
		}
	}
}

func TestConvolveValidation(t *testing.T) {
	if _, err := NewBoxFilter(2); err == nil {
		t.Fatal("even kernel must be rejected")
	}
	if _, err := NewGaussianFilter(5, 0); err == nil {
		t.Fatal("zero sigma must be rejected")
	}
	if _, err := (Convolve{}).OutInfo(stream.Info{}); err == nil {
		t.Fatal("empty kernel must be rejected")
	}
	ptInfo := stream.Info{Org: stream.PointByPoint}
	op, _ := NewBoxFilter(3)
	if _, err := op.OutInfo(ptInfo); err == nil {
		t.Fatal("point organization must be rejected")
	}
	if _, err := (Gradient{}).OutInfo(ptInfo); err == nil {
		t.Fatal("gradient on point streams must be rejected")
	}
}
