package query

import (
	"context"
	"math"
	"strings"
	"testing"

	"geostreams/internal/coord"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

func TestParseFilters(t *testing.T) {
	cases := []struct{ src, label string }{
		{"boxfilter(nir, 3)", "boxfilter(3)"},
		{"gaussfilter(nir, 5, 1.5)", "gaussfilter(5, 1.5)"},
		{"gradient(nir)", "gradient()"},
		{"gammac(nir, 2, 0, 1023)", "map(gammac(2, 0, 1023))"},
	}
	for _, c := range cases {
		n := mustParse(t, c.src)
		if n.Label() != c.label {
			t.Errorf("Parse(%q).Label() = %q, want %q", c.src, n.Label(), c.label)
		}
	}
	bad := []string{
		"boxfilter(nir, 4)",        // even
		"boxfilter(nir, 1)",        // too small
		"gaussfilter(nir, 5, 0)",   // zero sigma
		"gaussfilter(nir, 5.5, 1)", // non-integer
		"gradient()",               // missing stream
		"gammac(nir, 0, 0, 1)",     // non-positive gamma
	}
	for _, src := range bad {
		if _, err := Parse(src, testBands); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestFilterEndToEnd(t *testing.T) {
	g := stream.NewGroup(context.Background())
	catalog, sources, _ := testCatalog(t, g, 24, 20, 1)
	plan := mustParse(t, "boxfilter(vis, 3)")
	if err := Validate(plan, catalog); err != nil {
		t.Fatal(err)
	}
	out, _, err := Build(g, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	// The nir band is unused; drain it so the imager can finish.
	go stream.Drain(context.Background(), sources["nir"]) //nolint:errcheck
	chunks, err := stream.Collect(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range chunks {
		c.ForEachPoint(func(_ geom.Point, v float64) {
			if !math.IsNaN(v) {
				n++
			}
		})
	}
	if n != 24*20 {
		t.Fatalf("filtered points = %d, want %d", n, 24*20)
	}
}

func TestFilterPushdownWidensRegion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := stream.NewGroup(ctx)
	catalog, _, _ := testCatalog(t, g, 16, 16, 1)
	cancel()
	defer g.Wait() //nolint:errcheck

	plan := mustParse(t, "rselect(boxfilter(vis, 5), rect(-121.5, 36.5, -120.5, 37.5))")
	opt, err := Optimize(plan, catalog)
	if err != nil {
		t.Fatal(err)
	}
	// Exact restriction on top, widened restriction below the filter.
	top, ok := opt.(*RestrictS)
	if !ok {
		t.Fatalf("top = %s", opt.Label())
	}
	f, ok := top.In.(*Filter)
	if !ok {
		t.Fatalf("below top = %s", top.In.Label())
	}
	inner, ok := f.In.(*RestrictS)
	if !ok {
		t.Fatalf("below filter = %s", Format(opt))
	}
	// The widened region strictly contains the original.
	if wide := inner.Region.Bounds(); wide.Union(top.Region.Bounds()) != wide {
		t.Fatal("widened region must contain the original")
	}
	if inner.Region.Bounds() == top.Region.Bounds() {
		t.Fatal("inner region must actually be widened")
	}
}

func TestFilterExplainShowsRowCost(t *testing.T) {
	lat, err := geom.NewLattice(0, 10, 0.1, -0.1, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]stream.Info{
		"nir": {Band: "nir", CRS: coord.LatLon{}, VMax: 1023,
			SectorGeom: lat, HasSectorMeta: true},
	}
	exp, err := Explain(mustParse(t, "gradient(boxfilter(nir, 3))"), catalog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp, "O(rows)") {
		t.Fatalf("explain missing row-class cost:\n%s", exp)
	}
}
