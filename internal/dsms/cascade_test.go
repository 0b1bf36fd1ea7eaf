package dsms

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"geostreams/internal/query"
	"geostreams/internal/raster"
	"geostreams/internal/stream"
)

// collectFrames drains a query's frame queue and returns the raw PNG
// bytes in arrival order.
func collectFrames(t *testing.T, r *Registered) [][]byte {
	t.Helper()
	var out [][]byte
	frames := viewFrames(t, r)
	for {
		f, ok := frames.Next(5 * time.Second)
		if !ok {
			break
		}
		out = append(out, f.PNG)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("query %d error: %v", r.ID, err)
	}
	return out
}

// oracleFrames renders q the library way, independent of the server: the
// startServer imager's sources → Parse → Validate → query.Build,
// unoptimized and unfused, → raster.Assembler → EncodePNG with the
// server's default value range. Bands the plan does not read are drained
// so their generators finish.
func oracleFrames(t *testing.T, q, colormap string, sectors int) [][]byte {
	t.Helper()
	g := stream.NewGroup(context.Background())
	sources, err := testImager(t, stream.RowByRow, sectors).Streams(g)
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]stream.Info{}
	bands := map[string]bool{}
	for band, src := range sources {
		catalog[band] = src.Info
		bands[band] = true
	}
	plan, err := query.Parse(q, bands)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	if err := query.Validate(plan, catalog); err != nil {
		t.Fatalf("validate %q: %v", q, err)
	}
	read := query.Interests(plan)
	for band, src := range sources {
		if _, ok := read[band]; !ok {
			go stream.Drain(context.Background(), src) //nolint:errcheck
		}
	}
	out, _, err := query.Build(g, plan, sources)
	if err != nil {
		t.Fatalf("build %q: %v", q, err)
	}
	opts := DeliveryOptions{Colormap: colormap}.withDefaults(out.Info)
	cm, err := raster.ColormapByName(opts.Colormap)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	encode := func(imgs []*raster.Image) {
		for _, img := range imgs {
			var buf bytes.Buffer
			if err := img.EncodePNG(&buf, cm, opts.VMin, opts.VMax); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, buf.Bytes())
		}
	}
	asm := raster.NewAssembler()
	for c := range out.C {
		imgs, err := asm.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		encode(imgs)
	}
	imgs, err := asm.Flush()
	if err != nil {
		t.Fatal(err)
	}
	encode(imgs)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// assertFramesMatch fails unless got is byte-for-byte the oracle's frame
// sequence for q.
func assertFramesMatch(t *testing.T, what string, got [][]byte, q, colormap string, sectors int) {
	t.Helper()
	want := oracleFrames(t, q, colormap, sectors)
	if len(want) != sectors {
		t.Fatalf("oracle rendered %d frames of %q, want %d", len(want), q, sectors)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d differs from the library oracle", what, i)
		}
	}
}

// TestCascadeRoutedDistinctRectsBitIdentical is the E2E acceptance check:
// distinct-rect crop queries routed through the shared cascade stage
// deliver byte-for-byte the frames the library oracle renders, and the
// routing is visible in /stats (routers present, crop nodes marked
// routed, crops computed).
func TestCascadeRoutedDistinctRectsBitIdentical(t *testing.T) {
	const sectors = 2
	queries := []string{
		// Distinct overlapping rects over one band.
		"rselect(vis, rect(-121.9, 36.1, -120.9, 37.1))",
		"rselect(vis, rect(-121.5, 36.5, -120.5, 37.5))",
		"rselect(vis, rect(-121.2, 36.2, -120.2, 37.8))",
		// The same rect twice: dedups to one routed node, one outlet. (It
		// renders with another colormap, so it is a second product on
		// that node, not a handle on the first query's product.)
		"rselect(vis, rect(-121.5, 36.5, -120.5, 37.5))",
		// A crop pushed below a derived band: two routable frontiers.
		"rselect(ndvi(nir, vis), rect(-121.7, 36.3, -120.3, 37.7))",
	}
	colormap := func(i int) string {
		if i == 3 {
			return "thermal"
		}
		return "gray"
	}
	s, stop := startServer(t, sectors)
	defer stop()
	regs := make([]*Registered, len(queries))
	for i, q := range queries {
		regs[i] = mustRegister(t, s, q, DeliveryOptions{Colormap: colormap(i)})
	}
	st := s.ServerStats()
	if len(st.Shared.Routers) == 0 {
		t.Fatal("/stats shows no band routers")
	}
	routed := 0
	for _, tr := range st.Shared.Trunks {
		if tr.Routed {
			routed++
		}
	}
	// 3 distinct vis rects + vis and nir frontiers of the ndvi query = 5
	// routed crop nodes (the duplicate rect reuses one).
	if routed != 5 {
		t.Fatalf("%d routed trunks, want 5: %+v", routed, st.Shared.Trunks)
	}
	for _, h := range st.Hubs {
		if h.Subscribers != 1 {
			t.Fatalf("band %s has %d hub subscribers, want 1 (the router)",
				h.Band, h.Subscribers)
		}
	}
	s.Start()
	frames := make([][][]byte, len(regs))
	for i, r := range regs {
		frames[i] = collectFrames(t, r)
	}
	st = s.ServerStats()
	var probes, crops int64
	for _, ri := range st.Shared.Routers {
		probes += ri.Probes
		crops += ri.Crops
	}
	if probes == 0 || crops == 0 {
		t.Fatalf("router saw no traffic: probes=%d crops=%d", probes, crops)
	}
	// The duplicate rect reuses the routed node rather than adding an
	// outlet (crop sharing between distinct outlets is pinned at the share
	// level by TestRoutedCropSharing).
	if st.Shared.Reused == 0 {
		t.Fatal("duplicate-rect query did not reuse the routed node")
	}
	for qi, q := range queries {
		assertFramesMatch(t, fmt.Sprintf("query %d", qi), frames[qi], q, colormap(qi), sectors)
	}
}

// TestCascadeExplainAnnotates: EXPLAIN marks cascade-routable frontier
// roots.
func TestCascadeExplainAnnotates(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()
	const q = "rselect(ndvi(nir, vis), rect(-121.5, 36.5, -120.5, 37.5))"
	out, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[cascade]") {
		t.Fatalf("EXPLAIN has no [cascade] annotation:\n%s", out)
	}
	if !strings.Contains(out, "[shared ") {
		t.Fatalf("EXPLAIN lost its shared annotations:\n%s", out)
	}
}

// TestCascadeDeregisterTearsDownRouter: the band router lives exactly as
// long as its last routed query; full deregistration releases the hub
// subscription it held.
func TestCascadeDeregisterTearsDownRouter(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()
	r1, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))", DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Register("rselect(vis, rect(-121.3, 36.6, -120.6, 37.3))", DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	st := s.ServerStats()
	if len(st.Shared.Routers) != 1 {
		t.Fatalf("%d routers, want 1 (one vis band)", len(st.Shared.Routers))
	}
	if f := st.Shared.Routers[0].Frontiers; f != 2 {
		t.Fatalf("router has %d frontiers, want 2", f)
	}
	if err := s.Deregister(r1.ID); err != nil {
		t.Fatal(err)
	}
	st = s.ServerStats()
	if len(st.Shared.Routers) != 1 || st.Shared.Routers[0].Frontiers != 1 {
		t.Fatalf("after one deregister: %+v", st.Shared.Routers)
	}
	if err := s.Deregister(r2.ID); err != nil {
		t.Fatal(err)
	}
	st = s.ServerStats()
	for _, ri := range st.Shared.Routers {
		if ri.Live {
			t.Fatalf("router survived its last query: %+v", ri)
		}
	}
	for _, h := range st.Hubs {
		if h.Subscribers != 0 {
			t.Fatalf("band %s still has %d subscribers after router teardown",
				h.Band, h.Subscribers)
		}
	}
}

// TestCascadeChurn registers and deregisters distinct-rect queries from
// several goroutines while chunks flow — the register/deregister
// handlers mutate the cascade index concurrently with the routing
// goroutine's probes. Run under -race this pins the index and router
// locking.
func TestCascadeChurn(t *testing.T) {
	s, stop := startServer(t, 10000) // effectively endless scan
	defer stop()
	s.Start()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 12; i++ {
				x0 := -122 + rng.Float64()
				y0 := 36 + rng.Float64()
				q := fmt.Sprintf("rselect(vis, rect(%.3f, %.3f, %.3f, %.3f))",
					x0, y0, x0+0.8, y0+0.8)
				r, err := s.Register(q, DeliveryOptions{Colormap: "gray"})
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
				if err := s.Deregister(r.ID); err != nil {
					t.Errorf("deregister: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.ServerStats()
	for _, ri := range st.Shared.Routers {
		if ri.Live {
			t.Fatalf("router leaked after churn: %+v", ri)
		}
	}
	// The server is still healthy: a fresh query delivers a frame.
	r, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))", DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := viewFrames(t, r).Next(10 * time.Second); !ok {
		t.Fatal("no frame after churn")
	}
	if err := s.Deregister(r.ID); err != nil {
		t.Fatal(err)
	}
}
