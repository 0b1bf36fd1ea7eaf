// Tests of the public facade: every exported helper must be exercised
// through the package path downstream users would import.
package geostreams_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"geostreams"
)

func TestFacadeGeometryHelpers(t *testing.T) {
	r := geostreams.R(3, 4, 1, 2)
	if r.MinX != 1 || r.MaxY != 4 {
		t.Fatalf("R = %+v", r)
	}
	if !geostreams.RectRegion(r).Contains(geostreams.V2(2, 3)) {
		t.Fatal("rect region wrong")
	}
	if !geostreams.Disk(0, 0, 2).Contains(geostreams.V2(1, 1)) {
		t.Fatal("disk wrong")
	}
	poly, err := geostreams.Polygon([]geostreams.Vec2{
		geostreams.V2(0, 0), geostreams.V2(4, 0), geostreams.V2(2, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !poly.Contains(geostreams.V2(2, 1)) {
		t.Fatal("polygon wrong")
	}
	if !geostreams.Interval(2, 5).Contains(3) || geostreams.Interval(2, 5).Contains(5) {
		t.Fatal("interval wrong")
	}
	lat, err := geostreams.NewLattice(0, 10, 1, -1, 11, 11)
	if err != nil || lat.NumPoints() != 121 {
		t.Fatalf("lattice: %v", err)
	}
}

func TestFacadeCRS(t *testing.T) {
	ll, err := geostreams.ParseCRS("latlon")
	if err != nil {
		t.Fatal(err)
	}
	utm, err := geostreams.ParseCRS("utm:10")
	if err != nil {
		t.Fatal(err)
	}
	p, err := geostreams.TransformPoint(ll, utm, geostreams.V2(-123, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.X-500000) > 1e-6 {
		t.Fatalf("central meridian easting = %g", p.X)
	}
	if _, err := geostreams.ParseCRS("bogus"); err == nil {
		t.Fatal("bogus CRS must fail")
	}
}

// facadePipeline builds the standard two-band workload via the facade.
func facadePipeline(t *testing.T, g *geostreams.Group, sectors int) map[string]*geostreams.Stream {
	t.Helper()
	scene := geostreams.DefaultScene(5)
	im, err := geostreams.NewLatLonImager(geostreams.R(-122, 36, -120, 38),
		32, 24, scene, []string{"vis", "nir"}, geostreams.RowByRow, sectors)
	if err != nil {
		t.Fatal(err)
	}
	bands, err := im.Streams(g)
	if err != nil {
		t.Fatal(err)
	}
	return bands
}

func TestFacadeOperators(t *testing.T) {
	ctx := context.Background()
	g := geostreams.NewGroup(ctx)
	bands := facadePipeline(t, g, 1)

	ndvi, stats, err := geostreams.NDVI(g, bands["nir"], bands["vis"])
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("ndvi stats = %d", len(stats))
	}
	restricted, _, err := geostreams.Restrict(g, ndvi,
		geostreams.RectRegion(geostreams.R(-121.5, 36.5, -120.5, 37.5)))
	if err != nil {
		t.Fatal(err)
	}
	timed, _, err := geostreams.RestrictTime(g, restricted, geostreams.Interval(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	mapped, _, err := geostreams.MapValues(g, timed,
		func(v float64) float64 { return v * 100 }, "x100")
	if err != nil {
		t.Fatal(err)
	}
	stretched, _, err := geostreams.StretchLinear(g, mapped, 0, 255)
	if err != nil {
		t.Fatal(err)
	}
	zoomed, _, err := geostreams.ZoomIn(g, stretched, 2)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := geostreams.ZoomOut(g, zoomed, 2)
	if err != nil {
		t.Fatal(err)
	}
	utm, err := geostreams.ParseCRS("utm:10")
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := geostreams.Reproject(g, back, utm)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := geostreams.Collect(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range chunks {
		c.ForEachPoint(func(_ geostreams.Point, v float64) {
			if !math.IsNaN(v) {
				n++
				if v < -0.001 || v > 255.001 {
					t.Fatalf("value %g escaped stretch range", v)
				}
			}
		})
	}
	if n == 0 {
		t.Fatal("facade pipeline produced nothing")
	}
}

func TestFacadeQueryAPI(t *testing.T) {
	ctx := context.Background()
	g := geostreams.NewGroup(ctx)
	scene := geostreams.DefaultScene(5)
	im, err := geostreams.NewLatLonImager(geostreams.R(-122, 36, -120, 38),
		16, 12, scene, []string{"vis", "nir"}, geostreams.RowByRow, 1)
	if err != nil {
		t.Fatal(err)
	}
	sources, err := im.Streams(g)
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]geostreams.Info{
		"vis": im.Info(im.Bands[0]),
		"nir": im.Info(im.Bands[1]),
	}
	plan, err := geostreams.ParseQuery(
		"rselect(ndvi(nir, vis), rect(-121.5, 36.5, -120.5, 37.5))",
		map[string]bool{"vis": true, "nir": true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err = geostreams.OptimizeQuery(plan, catalog)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := geostreams.ExplainQuery(plan, catalog)
	if err != nil || len(exp) == 0 {
		t.Fatalf("explain: %v", err)
	}
	out, _, err := geostreams.BuildQuery(g, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := geostreams.Collect(ctx, out); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCompose(t *testing.T) {
	ctx := context.Background()
	g := geostreams.NewGroup(ctx)
	bands := facadePipeline(t, g, 1)
	sum, _, err := geostreams.Compose(g, geostreams.Add, bands["nir"], bands["vis"])
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := geostreams.Collect(ctx, sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 {
		t.Fatal("compose produced nothing")
	}
}

func TestFacadeAssembler(t *testing.T) {
	ctx := context.Background()
	g := geostreams.NewGroup(ctx)
	bands := facadePipeline(t, g, 2)
	go func() { _, _ = geostreams.Collect(ctx, bands["nir"]) }()
	asm := geostreams.NewAssembler()
	frames := 0
	chunks, err := geostreams.Collect(ctx, bands["vis"])
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		imgs, err := asm.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		frames += len(imgs)
	}
	if frames != 2 {
		t.Fatalf("assembled %d frames, want 2", frames)
	}
}

func TestFacadeServer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := geostreams.NewServer(ctx)
	scene := geostreams.DefaultScene(5)
	im, err := geostreams.NewLatLonImager(geostreams.R(-122, 36, -120, 38),
		16, 12, scene, []string{"vis"}, geostreams.RowByRow, 2)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := im.Streams(srv.Group())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddSource(streams["vis"]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close() //nolint:errcheck

	client := geostreams.NewServerClient(ts.URL)
	qi, err := client.Register("vis", "gray")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	f, ok, err := client.Frames(int64(qi.ID)).Next(5 * time.Second)
	if err != nil || !ok || len(f.PNG) == 0 {
		t.Fatalf("frame: %v ok=%v", err, ok)
	}
}
