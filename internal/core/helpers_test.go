package core

import (
	"context"
	"math"
	"testing"

	"geostreams/internal/coord"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// pt constructs a spatio-temporal point (x, y)@t.
func pt(x, y float64, t geom.Timestamp) geom.Point { return geom.Point{S: geom.V2(x, y), T: t} }

// sectorLattice returns a north-up w×h lattice over [0,w)×(0,h] in latlon
// degrees scaled down (so it stays in-domain).
func sectorLattice(t testing.TB, w, h int) geom.Lattice {
	t.Helper()
	l, err := geom.NewLattice(0, float64(h-1)*0.01, 0.01, -0.01, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// rowChunks renders fn over the lattice as row-by-row chunks followed by
// end-of-sector punctuation.
func rowChunks(t testing.TB, lat geom.Lattice, ts geom.Timestamp, fn func(col, row int) float64) []*stream.Chunk {
	t.Helper()
	var out []*stream.Chunk
	for r := 0; r < lat.H; r++ {
		vals := make([]float64, lat.W)
		for c := 0; c < lat.W; c++ {
			vals[c] = fn(c, r)
		}
		ch, err := stream.NewGridChunk(ts, lat.Row(r), vals)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ch)
	}
	return append(out, stream.NewEndOfSector(ts, lat))
}

// frameChunk renders fn as one image-by-image chunk plus punctuation.
func frameChunk(t testing.TB, lat geom.Lattice, ts geom.Timestamp, fn func(col, row int) float64) []*stream.Chunk {
	t.Helper()
	vals := make([]float64, lat.NumPoints())
	for r := 0; r < lat.H; r++ {
		for c := 0; c < lat.W; c++ {
			vals[r*lat.W+c] = fn(c, r)
		}
	}
	ch, err := stream.NewGridChunk(ts, lat, vals)
	if err != nil {
		t.Fatal(err)
	}
	return []*stream.Chunk{ch, stream.NewEndOfSector(ts, lat)}
}

// rowInfo builds stream metadata for a row-by-row band over the lattice.
func rowInfo(band string, lat geom.Lattice) stream.Info {
	return stream.Info{
		Band: band, CRS: coord.LatLon{}, Org: stream.RowByRow,
		Stamp: stream.StampSectorID, SectorGeom: lat, HasSectorMeta: true,
		VMin: 0, VMax: 100,
	}
}

// runUnary pushes chunks through a unary operator and returns the output
// chunks and the operator stats.
func runUnary(t testing.TB, op stream.Operator, info stream.Info, chunks []*stream.Chunk) ([]*stream.Chunk, *stream.Stats) {
	t.Helper()
	g := stream.NewGroup(context.Background())
	src := stream.FromChunks(g, info, chunks)
	out, st, err := stream.Apply(g, op, src)
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
	return got, st
}

// runBinary pushes two chunk streams through a binary operator.
func runBinary(t testing.TB, op stream.BinaryOperator, aInfo, bInfo stream.Info, a, b []*stream.Chunk) ([]*stream.Chunk, *stream.Stats) {
	t.Helper()
	g := stream.NewGroup(context.Background())
	as := stream.FromChunks(g, aInfo, a)
	bs := stream.FromChunks(g, bInfo, b)
	out, st, err := stream.Apply2(g, op, as, bs)
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
	return got, st
}

// dataPoints flattens the data points of a chunk list into a map from
// spatial location to value (last write wins), skipping NaN.
func dataPoints(chunks []*stream.Chunk) map[geom.Vec2]float64 {
	out := make(map[geom.Vec2]float64)
	for _, c := range chunks {
		c.ForEachPoint(func(p geom.Point, v float64) {
			if !math.IsNaN(v) {
				out[p.S] = v
			}
		})
	}
	return out
}

// countDataPoints counts non-NaN points across chunks.
func countDataPoints(chunks []*stream.Chunk) int {
	n := 0
	for _, c := range chunks {
		c.ForEachPoint(func(_ geom.Point, v float64) {
			if !math.IsNaN(v) {
				n++
			}
		})
	}
	return n
}

// lookupNear finds a point value by coordinate with tolerance; sub-lattice
// origins accumulate last-ulp float differences versus parent-lattice
// coordinates, so exact map keys cannot be compared across operators.
func lookupNear(pts map[geom.Vec2]float64, p geom.Vec2, tol float64) (float64, bool) {
	if v, ok := pts[p]; ok {
		return v, true
	}
	for q, v := range pts {
		if q.AlmostEq(p, tol) {
			return v, true
		}
	}
	return 0, false
}

func mustCRS(t testing.TB, name string) coord.CRS {
	t.Helper()
	c, err := coord.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}
