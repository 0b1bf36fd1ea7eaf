package query

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"geostreams/internal/coord"
	"geostreams/internal/geom"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
	"geostreams/internal/valueset"
)

var testBands = map[string]bool{"nir": true, "vis": true, "ir": true}

func mustParse(t *testing.T, src string) Node {
	t.Helper()
	n, err := Parse(src, testBands)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return n
}

func TestLexer(t *testing.T) {
	toks, err := lex(`rselect(nir, rect(-1.5, 2, 3e2, .5)) "utm:10"`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokenKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.kind
	}
	want := []tokenKind{
		tokIdent, tokLParen, tokIdent, tokComma, tokIdent, tokLParen,
		tokMinus, tokNumber, tokComma, tokNumber, tokComma, tokNumber,
		tokComma, tokNumber, tokRParen, tokRParen, tokString, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// Scientific notation and identifiers with colons.
	toks, err = lex("3.5e-2 utm:10n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].num != 0.035 || toks[1].text != "utm:10n" {
		t.Fatalf("lex values: %+v", toks)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "§", "1.2.3"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) must fail", src)
		}
	}
}

func TestParseSimpleQueries(t *testing.T) {
	cases := []struct {
		src  string
		want string // top-level label prefix
	}{
		{"nir", "nir"},
		{"rselect(nir, rect(0, 0, 10, 10))", "rselect"},
		{"tselect(nir, interval(0, 100))", "tselect"},
		{"vselect(nir, range(0, 500))", "vselect"},
		{"scale(nir, 2, 1)", "map"},
		{"stretch(nir, linear, 0, 255)", "stretch(linear"},
		{"zoomin(nir, 2)", "zoomin(2)"},
		{"zoomout(nir, 4)", "zoomout(4)"},
		{`reproject(nir, "utm:10")`, "reproject(utm:10n"},
		{"rotate(nir, 90)", "rotate(90)"},
		{"nir - vis", "compose(-)"},
		{"nir / vis", "compose(/)"},
		{"sup(nir, vis)", "compose(sup)"},
		{"ndvi(nir, vis)", "compose(/)"},
		{"agg_t(nir, mean, 4)", "agg_t(mean, 4)"},
		{"agg_r(nir, max, disk(0, 0, 5))", "agg_r(max"},
		{"(nir - vis) / (nir + vis)", "compose(/)"},
	}
	for _, c := range cases {
		n := mustParse(t, c.src)
		if !strings.HasPrefix(n.Label(), c.want) {
			t.Errorf("Parse(%q).Label() = %q, want prefix %q", c.src, n.Label(), c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// a - b / c must parse as a - (b / c).
	n := mustParse(t, "nir - vis / ir")
	top, ok := n.(*ComposeOp)
	if !ok || top.Gamma != valueset.Sub {
		t.Fatalf("top = %s", n.Label())
	}
	if r, ok := top.R.(*ComposeOp); !ok || r.Gamma != valueset.Div {
		t.Fatalf("rhs = %s", top.R.Label())
	}
	// Parens override.
	n = mustParse(t, "(nir - vis) / ir")
	if top, ok := n.(*ComposeOp); !ok || top.Gamma != valueset.Div {
		t.Fatalf("paren top = %s", n.Label())
	}
	// Constant folding: numbers combine at parse time.
	n = mustParse(t, "scale(nir, 2 * 3, 1 + 1)")
	if !strings.Contains(n.Label(), "scale(6, 2)") {
		t.Fatalf("folded label = %s", n.Label())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"bogusband",
		"unknownfn(nir)",
		"rselect(nir)",
		"rselect(rect(0,0,1,1), nir)", // swapped args
		"rect(0,0,1,1) + nir",         // region arithmetic
		"nir + 3",                     // stream + number
		"zoomin(nir, 2.5)",
		"zoomin(nir, 1)",
		"stretch(nir, sideways, 0, 255)",
		`reproject(nir, "utm:99")`,
		"polygon(0,0, 1,1)", // too few vertices
		"recurring(0, 0, 1)",
		"range(5, 1)",
		"rselect(nir, rect(0,0,1,1)", // unbalanced paren
		"agg_t(nir, median, 3)",
		"-nir",
		"instants()",
	}
	for _, src := range cases {
		if _, err := Parse(src, testBands); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestParseRegionTimeValueSpecs(t *testing.T) {
	n := mustParse(t, "rselect(nir, polygon(0,0, 4,0, 4,4, 0,4))")
	rs := n.(*RestrictS)
	if !rs.Region.Contains(geom.V2(2, 2)) || rs.Region.Contains(geom.V2(5, 5)) {
		t.Fatal("polygon region wrong")
	}
	n = mustParse(t, "tselect(nir, recurring(24, 6, 4))")
	rt := n.(*RestrictT)
	if !rt.Times.Contains(7) || rt.Times.Contains(12) {
		t.Fatal("recurring time set wrong")
	}
	n = mustParse(t, "vselect(nir, above(100))")
	rv := n.(*RestrictV)
	if !rv.Set.Contains(101) || rv.Set.Contains(100) {
		t.Fatal("above set wrong")
	}
	n = mustParse(t, "tselect(nir, instants(3, 5))")
	if !n.(*RestrictT).Times.Contains(5) {
		t.Fatal("instants wrong")
	}
	n = mustParse(t, "rselect(nir, world())")
	if !n.(*RestrictS).Region.Contains(geom.V2(1e9, -1e9)) {
		t.Fatal("world region wrong")
	}
}

// testCatalog builds a catalog + live sources over a synthetic imager.
func testCatalog(t *testing.T, g *stream.Group, w, h, sectors int) (map[string]stream.Info, map[string]*stream.Stream, geom.Lattice) {
	t.Helper()
	scene := sat.DefaultScene(42)
	im, err := sat.NewLatLonImager(geom.R(-122, 36, -120, 38), w, h, scene,
		[]string{"vis", "nir"}, stream.RowByRow, sectors)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := im.Streams(g)
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]stream.Info{
		"vis": im.Info(im.Bands[0]),
		"nir": im.Info(im.Bands[1]),
	}
	return catalog, streams, im.Sector
}

func TestBuildAndRunPaperQuery(t *testing.T) {
	// The §3.4 running example: NDVI, stretch, re-project to UTM, restrict
	// to a region of interest (region in UTM coordinates).
	g := stream.NewGroup(context.Background())
	catalog, sources, _ := testCatalog(t, g, 24, 20, 1)

	// UTM zone 10 coordinates of the center of the scene.
	ll := coord.LatLon{}
	utm := coord.MustParse("utm:10")
	c, err := coord.Transform(ll, utm, geom.V2(-121, 37))
	if err != nil {
		t.Fatal(err)
	}
	q := `rselect(
	        reproject(
	          stretch((nir - vis) / (nir + vis), linear, 0, 255),
	          "utm:10"),
	        rect(` +
		formatF(c.X-40000) + `, ` + formatF(c.Y-40000) + `, ` +
		formatF(c.X+40000) + `, ` + formatF(c.Y+40000) + `))`

	plan := mustParse(t, q)
	opt, err := Optimize(plan, catalog)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := Build(g, opt, sources)
	if err != nil {
		t.Fatal(err)
	}
	if out.Info.CRS.Name() != "utm:10n" {
		t.Fatalf("output CRS = %s", out.Info.CRS.Name())
	}
	chunks, err := stream.Collect(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, ch := range chunks {
		ch.ForEachPoint(func(p geom.Point, v float64) {
			if math.IsNaN(v) {
				return
			}
			valid++
			if v < -0.001 || v > 255.001 {
				t.Fatalf("stretched value %g out of range", v)
			}
			// All surviving points lie in the UTM region of interest.
			if p.S.X < c.X-40001 || p.S.X > c.X+40001 || p.S.Y < c.Y-40001 || p.S.Y > c.Y+40001 {
				t.Fatalf("point %v escaped the restriction", p.S)
			}
		})
	}
	if valid == 0 {
		t.Fatal("query produced no data")
	}
	if len(stats) == 0 {
		t.Fatal("no operator stats collected")
	}
}

func formatF(v float64) string {
	return strconv.FormatFloat(v, 'f', 3, 64)
}

func TestOptimizePushesThroughReprojection(t *testing.T) {
	// The sources are never consumed here (plan-only test): cancel the
	// parent context so the generators unwind.
	ctx, cancel := context.WithCancel(context.Background())
	g := stream.NewGroup(ctx)
	catalog, _, _ := testCatalog(t, g, 8, 8, 1)
	cancel()
	defer g.Wait() //nolint:errcheck

	plan := mustParse(t, `rselect(reproject(nir, "utm:10"), rect(500000, 4000000, 600000, 4200000))`)
	opt, err := Optimize(plan, catalog)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: rselect(reproject(rselect(nir, mapped-region))).
	top, ok := opt.(*RestrictS)
	if !ok {
		t.Fatalf("top = %s", opt.Label())
	}
	rp, ok := top.In.(*Reproject)
	if !ok {
		t.Fatalf("below top = %s", top.In.Label())
	}
	inner, ok := rp.In.(*RestrictS)
	if !ok {
		t.Fatalf("below reproject = %s (restriction not pushed)", rp.In.Label())
	}
	if _, ok := inner.In.(*Source); !ok {
		t.Fatalf("below inner restrict = %s", inner.In.Label())
	}
	// The mapped region must be in latlon coordinates (small numbers).
	b := inner.Region.Bounds()
	if b.MinX < -180 || b.MaxX > 180 {
		t.Fatalf("mapped region bounds look unmapped: %v", b)
	}
}

func TestOptimizeMergesRestrictions(t *testing.T) {
	plan := mustParse(t, "rselect(rselect(nir, rect(0,0,10,10)), rect(5,5,15,15))")
	opt, err := Optimize(plan, map[string]stream.Info{"nir": {CRS: coord.LatLon{}, VMax: 1}})
	if err != nil {
		t.Fatal(err)
	}
	top, ok := opt.(*RestrictS)
	if !ok {
		t.Fatalf("top = %s", opt.Label())
	}
	if _, ok := top.In.(*Source); !ok {
		t.Fatalf("restrictions not merged: %s", Format(opt))
	}
	if top.Region.Contains(geom.V2(2, 2)) || !top.Region.Contains(geom.V2(7, 7)) {
		t.Fatal("merged region semantics wrong")
	}
}

func TestOptimizePushesThroughCompose(t *testing.T) {
	catalog := map[string]stream.Info{
		"nir": {CRS: coord.LatLon{}, VMax: 1},
		"vis": {CRS: coord.LatLon{}, VMax: 1},
	}
	plan := mustParse(t, "rselect(nir - vis, rect(0,0,1,1))")
	opt, err := Optimize(plan, catalog)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := opt.(*ComposeOp)
	if !ok {
		t.Fatalf("top = %s", opt.Label())
	}
	if _, ok := top.L.(*RestrictS); !ok {
		t.Fatalf("left input not restricted: %s", Format(opt))
	}
	if _, ok := top.R.(*RestrictS); !ok {
		t.Fatalf("right input not restricted: %s", Format(opt))
	}
}

func TestOptimizePushesTemporalToSources(t *testing.T) {
	catalog := map[string]stream.Info{
		"nir": {CRS: coord.LatLon{}, VMax: 1},
		"vis": {CRS: coord.LatLon{}, VMax: 1},
	}
	plan := mustParse(t, "tselect(scale(nir - vis, 1, 0), interval(0, 10))")
	opt, err := Optimize(plan, catalog)
	if err != nil {
		t.Fatal(err)
	}
	// Expect map(compose(tselect(nir), tselect(vis))).
	mp, ok := opt.(*MapFn)
	if !ok {
		t.Fatalf("top = %s", opt.Label())
	}
	cmp, ok := mp.In.(*ComposeOp)
	if !ok {
		t.Fatalf("below map = %s", mp.In.Label())
	}
	if _, ok := cmp.L.(*RestrictT); !ok {
		t.Fatalf("temporal restriction not at left source: %s", Format(opt))
	}
	if _, ok := cmp.R.(*RestrictT); !ok {
		t.Fatalf("temporal restriction not at right source: %s", Format(opt))
	}
}

// runPlanPoints builds q over the test catalog, optimized or not, and
// returns its data points by location plus the points every operator of
// the plan took in.
func runPlanPoints(t *testing.T, q string, optimize bool) (map[geom.Vec2]float64, int64) {
	t.Helper()
	g := stream.NewGroup(context.Background())
	catalog, sources, _ := testCatalog(t, g, 40, 32, 2)
	plan := mustParse(t, q)
	if optimize {
		var err error
		if plan, err = Optimize(plan, catalog); err != nil {
			t.Fatal(err)
		}
	}
	out, stats, err := Build(g, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := stream.Collect(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	pts := map[geom.Vec2]float64{}
	for _, c := range chunks {
		c.ForEachPoint(func(p geom.Point, v float64) {
			if !math.IsNaN(v) {
				pts[p.S] = v
			}
		})
	}
	var touched int64
	for _, st := range stats {
		touched += st.PointsIn.Load()
	}
	return pts, touched
}

// Optimized and unoptimized plans must produce identical data points.
func TestOptimizeSemanticEquivalence(t *testing.T) {
	for _, q := range []string{
		"rselect(scale(nir - vis, 2, 5), rect(-121.6, 36.4, -120.4, 37.6))",
		"rselect(scale(ndvi(nir, vis), 2, 5), rect(-121.1, 36.9, -120.9, 37.1))",
	} {
		plain, _ := runPlanPoints(t, q, false)
		opt, _ := runPlanPoints(t, q, true)
		if len(plain) == 0 {
			t.Fatalf("%s: query produced nothing", q)
		}
		if len(plain) != len(opt) {
			t.Fatalf("%s: optimized plan changed cardinality: %d vs %d", q, len(plain), len(opt))
		}
		for p, v := range plain {
			ov, ok := opt[p]
			if !ok || math.Abs(ov-v) > 1e-9 {
				t.Fatalf("%s: optimized plan differs at %v: %g vs %g", q, p, v, ov)
			}
		}
	}
}

// TestOptimizeTouchesFewerPoints: pushing the restriction toward the
// sources is the §3.4 space/time gain, so the optimized plan takes in
// fewer points than the naive one, and at 1 % selectivity (the second
// query) under half as many.
func TestOptimizeTouchesFewerPoints(t *testing.T) {
	for _, tc := range []struct {
		q       string
		maxFrac float64 // optimized points touched / naive, exclusive bound
	}{
		{"rselect(scale(nir - vis, 2, 5), rect(-121.6, 36.4, -120.4, 37.6))", 1},
		{"rselect(scale(ndvi(nir, vis), 2, 5), rect(-121.1, 36.9, -120.9, 37.1))", 0.5},
	} {
		_, plainTouched := runPlanPoints(t, tc.q, false)
		_, optTouched := runPlanPoints(t, tc.q, true)
		t.Logf("%s: naive touched %d points, optimized %d", tc.q, plainTouched, optTouched)
		if float64(optTouched) >= tc.maxFrac*float64(plainTouched) {
			t.Fatalf("%s: optimized plan touched %d points, naive %d: want under %g of naive",
				tc.q, optTouched, plainTouched, tc.maxFrac)
		}
	}
}

func TestNDVISharedSubtreesTee(t *testing.T) {
	// ndvi(nir, vis) consumes each band twice via shared node pointers;
	// the planner must tee and the pipeline must complete.
	g := stream.NewGroup(context.Background())
	catalog, sources, _ := testCatalog(t, g, 10, 8, 1)
	_ = catalog
	plan := mustParse(t, "ndvi(nir, vis)")
	out, _, err := Build(g, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
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
				if v < -1.001 || v > 1.001 {
					t.Fatalf("NDVI %g out of [-1, 1]", v)
				}
			}
		})
	}
	if n == 0 {
		t.Fatal("ndvi produced nothing")
	}
}

func TestValidateAndExplain(t *testing.T) {
	catalog := map[string]stream.Info{
		"nir": {Band: "nir", CRS: coord.LatLon{}, VMax: 1023},
		"vis": {Band: "vis", CRS: coord.MustParse("utm:10"), VMax: 1023},
	}
	// Composition across coordinate systems must fail validation.
	plan := mustParse(t, "nir - vis")
	if err := Validate(plan, catalog); err == nil {
		t.Fatal("cross-CRS composition must fail validation")
	}
	// Unknown band.
	if err := Validate(&Source{Band: "swir"}, catalog); err == nil {
		t.Fatal("unknown band must fail validation")
	}
	// Explain renders cost classes.
	lat, err := geom.NewLattice(0, 10, 0.1, -0.1, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	catalog2 := map[string]stream.Info{
		"nir": {Band: "nir", CRS: coord.LatLon{}, VMax: 1023, SectorGeom: lat, HasSectorMeta: true},
		"vis": {Band: "vis", CRS: coord.LatLon{}, VMax: 1023, SectorGeom: lat, HasSectorMeta: true},
	}
	plan = mustParse(t, `rselect(stretch(nir - vis, linear, 0, 255), rect(0, 0, 5, 5))`)
	exp, err := Explain(plan, catalog2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rselect", "stretch", "compose(-)", "O(1)", "O(frame)"} {
		if !strings.Contains(exp, want) {
			t.Fatalf("explain output missing %q:\n%s", want, exp)
		}
	}
}

func TestBuildMissingSource(t *testing.T) {
	g := stream.NewGroup(context.Background())
	plan := mustParse(t, "nir")
	if _, _, err := Build(g, plan, map[string]*stream.Stream{}); err == nil {
		t.Fatal("missing source must fail")
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

func mustLatLon() coord.CRS { return coord.LatLon{} }
