package dsms

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

// liveVisServer brings up a server over one row-by-row "vis" band whose
// sectors the test feeds by hand, so it decides when each frame exists.
func liveVisServer(t *testing.T) (*Server, chan<- *stream.Chunk, stream.Info, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := NewServer(ctx)
	info := wireTestInfo(t, "vis")
	src := make(chan *stream.Chunk, 64)
	if err := s.AddSource(&stream.Stream{Info: info, C: src}); err != nil {
		t.Fatal(err)
	}
	return s, src, info, func() {
		// A draining shutdown, not a cancellation: draining closes the
		// band's hub, which ends even a pipeline that never saw a sector,
		// before the server context goes.
		drain, done := context.WithTimeout(context.Background(), 10*time.Second)
		defer done()
		s.Shutdown(drain) //nolint:errcheck
		cancel()
	}
}

// feedVisSector writes one full sector of row chunks plus its end of
// sector; values vary with the sector so frames differ.
func feedVisSector(t *testing.T, src chan<- *stream.Chunk, info stream.Info, sector geom.Timestamp) {
	t.Helper()
	full := info.SectorGeom
	for row := 0; row < full.H; row++ {
		rl, err := geom.NewLattice(full.X0, full.Y0+float64(row)*full.DY, full.DX, full.DY, full.W, 1)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, full.W)
		for i := range vals {
			vals[i] = float64((int(sector)*37 + row*10 + i) % 256)
		}
		c, err := stream.NewGridChunk(sector, rl, vals)
		if err != nil {
			t.Fatal(err)
		}
		src <- c
	}
	src <- stream.NewEndOfSector(sector, full)
}

// nextSector reads one frame from a subscription, releases it and returns
// its sector.
func nextSector(t *testing.T, sub *FrameSub) geom.Timestamp {
	t.Helper()
	f, ok := sub.Next(5 * time.Second)
	if !ok {
		t.Fatal("no frame within 5s")
	}
	defer f.Release()
	return f.Sector
}

func mustRegister(t *testing.T, s *Server, q string, opts DeliveryOptions) *Registered {
	t.Helper()
	r, err := s.Register(q, opts)
	if err != nil {
		t.Fatalf("register %q: %v", q, err)
	}
	return r
}

// TestProductKeyDecidesSharing: whitespace variants of one query join one
// product, as does a value range spelled out equal to the default; a
// different colormap or value range is another product.
func TestProductKeyDecidesSharing(t *testing.T) {
	const q = "stretch(vis, linear, 0, 255)"
	s, _, _, stop := liveVisServer(t)
	defer stop()
	a := mustRegister(t, s, q, DeliveryOptions{Colormap: "gray"})
	b := mustRegister(t, s, "stretch(  vis,linear, 0,255 )", DeliveryOptions{Colormap: "gray"})
	explicit := mustRegister(t, s, q, DeliveryOptions{Colormap: "gray", VMin: 0, VMax: 255})
	thermal := mustRegister(t, s, q, DeliveryOptions{Colormap: "thermal"})
	ranged := mustRegister(t, s, q, DeliveryOptions{Colormap: "gray", VMin: 10, VMax: 200})

	if a.product != b.product || a.product != explicit.product {
		t.Fatal("whitespace variants / default value range did not join one product")
	}
	if n := b.ProductInfo().Handles; n != 3 {
		t.Fatalf("handles = %d, want 3", n)
	}
	if a.ProductInfo().Digest != b.ProductInfo().Digest {
		t.Fatal("handles on one product report different digests")
	}
	for _, r := range []*Registered{thermal, ranged} {
		if r.product == a.product || r.ProductInfo().Digest == a.ProductInfo().Digest {
			t.Fatalf("query %d (%+v) joined the gray product", r.ID, r.opts)
		}
	}
	if n := s.ServerStats().Products; n != 3 {
		t.Fatalf("/stats products = %d, want 3", n)
	}
	// Handles have no pipeline of their own: one trunk mount each for the
	// three products, none for the two extra handles.
	if tr := s.ServerStats().Shared.Trunks; len(tr) != 1 || tr[0].Taps != 3 {
		t.Fatalf("trunks = %+v, want one vis trunk with 3 taps", tr)
	}
}

// TestProductHandlesMatchPrivateFrames: two handles on one product each
// drain the full frame sequence through their own subscription,
// concurrently, and every frame is byte-identical to what the library
// oracle renders — while the product encoded each sector once.
func TestProductHandlesMatchPrivateFrames(t *testing.T) {
	const sectors = 3
	const q = "stretch(ndvi(nir, vis), linear, 0, 255)"
	opts := DeliveryOptions{Colormap: "ndvi"}

	s, stop := startServer(t, sectors)
	defer stop()
	owner := mustRegister(t, s, q, opts)
	handle := mustRegister(t, s, "stretch(ndvi( nir,  vis), linear, 0, 255)", opts)
	if owner.product != handle.product {
		t.Fatal("whitespace variant did not join the product")
	}
	s.Start()
	got := make([][][]byte, 2)
	var wg sync.WaitGroup
	for i, r := range []*Registered{owner, handle} {
		wg.Add(1)
		go func(i int, r *Registered) {
			defer wg.Done()
			view := r.SubscribeFrames()
			defer view.Close()
			for {
				f, ok := view.Next(5 * time.Second)
				if !ok {
					return
				}
				got[i] = append(got[i], f.PNG)
			}
		}(i, r)
	}
	wg.Wait()

	for i := range got {
		assertFramesMatch(t, fmt.Sprintf("handle %d", i), got[i], q, opts.Colormap, sectors)
	}
	if n := s.ServerStats().FramesEncoded; n != sectors {
		t.Fatalf("frames encoded = %d, want %d (one per sector)", n, sectors)
	}
	for _, r := range []*Registered{owner, handle} {
		if n := r.DeliveryStats().Frames; n != sectors {
			t.Fatalf("query %d delivery frames = %d, want %d", r.ID, n, sectors)
		}
	}
}

// TestProductOutlivesItsOwner: deregistering the query that built a
// product ends that query's viewers — its frame subscription and its GSP
// push subscription — but not the product; the remaining handle keeps
// receiving frames.
func TestProductOutlivesItsOwner(t *testing.T) {
	s, src, info, stop := liveVisServer(t)
	defer stop()
	const q = "stretch(vis, linear, 0, 255)"
	owner := mustRegister(t, s, q, DeliveryOptions{})
	handle := mustRegister(t, s, q, DeliveryOptions{})
	ownerSub := owner.SubscribeFrames()
	defer ownerSub.Close()
	sub := handle.SubscribeFrames()
	defer sub.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	push, err := NewClient(ts.URL).subscribe(int64(owner.ID), 64, "")
	if err != nil {
		t.Fatal(err)
	}
	defer push.Close() //nolint:errcheck
	push.IdleTimeout = 5 * time.Second
	waitForSubscriber(t, owner)
	s.Start()

	feedVisSector(t, src, info, 1)
	if got := nextSector(t, ownerSub); got != 1 {
		t.Fatalf("owner read sector %d, want 1", got)
	}
	if got := nextSector(t, sub); got != 1 {
		t.Fatalf("handle read sector %d, want 1", got)
	}
	if err := s.Deregister(owner.ID); err != nil {
		t.Fatal(err)
	}
	if !ownerSub.Ended() {
		t.Fatal("the deregistered owner's subscription did not end")
	}
	for {
		c, err := push.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("owner's push subscription ended with %v, want a clean bye", err)
			}
			break
		}
		c.Release()
	}
	feedVisSector(t, src, info, 2)
	if got := nextSector(t, sub); got != 2 {
		t.Fatalf("handle read sector %d after the owner left, want 2", got)
	}
	if handle.Status().State != "running" || handle.ProductInfo().Handles != 1 {
		t.Fatalf("handle status %+v, product %+v", handle.Status(), handle.ProductInfo())
	}
}

// TestProductHandleStartsAtRegistration: a handle that joins a running
// product never sees a frame published before it registered — not through
// SubscribeFrames, cursor=oldest or an explicit older cursor —
// and its delivery counters start at zero.
func TestProductHandleStartsAtRegistration(t *testing.T) {
	s, src, info, stop := liveVisServer(t)
	defer stop()
	const q = "stretch(vis, linear, 0, 255)"
	owner := mustRegister(t, s, q, DeliveryOptions{})
	ownerSub := owner.SubscribeFrames()
	defer ownerSub.Close()
	s.Start()
	feedVisSector(t, src, info, 1)
	if got := nextSector(t, ownerSub); got != 1 {
		t.Fatalf("owner read sector %d, want 1", got)
	}

	late := mustRegister(t, s, q, DeliveryOptions{})
	if late.product != owner.product {
		t.Fatal("mid-stream registration did not join the running product")
	}
	sub := late.SubscribeFrames()
	defer sub.Close()
	if f, ok := sub.Next(50 * time.Millisecond); ok {
		t.Fatalf("late subscription read sector %d, published before it registered", f.Sector)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	poll := func(cursor string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/queries/%d/frame?cursor=%s&wait=50", ts.URL, late.ID, cursor))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return resp, buf.Bytes()
	}
	for _, cur := range []string{"oldest", "0"} {
		if resp, _ := poll(cur); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("cursor=%s on the late handle: %s, want 204", cur, resp.Status)
		}
	}
	if n := late.DeliveryStats().Frames; n != 0 {
		t.Fatalf("late handle delivery frames = %d before any new frame", n)
	}

	feedVisSector(t, src, info, 2)
	if got := nextSector(t, sub); got != 2 {
		t.Fatalf("late subscription read sector %d, want 2", got)
	}
	if resp, body := poll("0"); resp.StatusCode != http.StatusOK ||
		resp.Header.Get("X-Geostreams-Sector") != "2" || len(body) == 0 {
		t.Fatalf("cursor=0 on the late handle: %s sector %q", resp.Status, resp.Header.Get("X-Geostreams-Sector"))
	}
	if a, b := owner.DeliveryStats().Frames, late.DeliveryStats().Frames; a != 2 || b != 1 {
		t.Fatalf("delivery frames owner=%d late=%d, want 2 and 1", a, b)
	}
	if n := owner.ProductInfo().FramesEncoded; n != 2 {
		t.Fatalf("product encoded %d frames, want 2", n)
	}
}

// TestProductTeardownRestoresBaselines: once the last handle of every
// product is deregistered — owners first — pooled PNG backings, pooled
// chunks and goroutines are back at their pre-registration baselines.
func TestProductTeardownRestoresBaselines(t *testing.T) {
	s, src, info, stop := liveVisServer(t)
	defer stop()
	s.Start()
	goroutines, pngs, pooled := runtime.NumGoroutine(), pngLive.Load(), stream.PooledLive()

	var regs []*Registered
	for i := 0; i < 3; i++ {
		regs = append(regs, mustRegister(t, s, "stretch(vis, linear, 0, 255)"+strings.Repeat(" ", i), DeliveryOptions{}))
	}
	regs = append(regs, mustRegister(t, s, "rselect(vis, rect(-122, 36, -121, 37))", DeliveryOptions{}))
	subs := make([]*FrameSub, len(regs))
	for i, r := range regs {
		subs[i] = r.SubscribeFrames()
	}
	for sector := geom.Timestamp(1); sector <= 2; sector++ {
		feedVisSector(t, src, info, sector)
		for _, sub := range subs {
			if got := nextSector(t, sub); got != sector {
				t.Fatalf("read sector %d, want %d", got, sector)
			}
		}
	}
	for _, sub := range subs {
		sub.Close()
	}
	for _, r := range regs {
		if err := s.Deregister(r.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.ServerStats().Products; n != 0 {
		t.Fatalf("%d products after deregistering every query", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, p, c := runtime.NumGoroutine(), pngLive.Load(), stream.PooledLive()
		if g <= goroutines && p == pngs && c == pooled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after teardown: goroutines %d (baseline %d), PNG backings %d (%d), pooled chunks %d (%d)",
				g, goroutines, p, pngs, c, pooled)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProductEncodesOncePerSectorOnBenchmarkMix pins the encode count on
// the 64-query mix: 48 tiled NDVI crops plus 16 whitespace variants of the
// full-sector NDVI product over 64×48 sectors. The 16 variants are one
// product, so the server encodes 49 frames per sector while every query
// still counts one delivered frame per sector.
func TestProductEncodesOncePerSectorOnBenchmarkMix(t *testing.T) {
	const sectors = 3
	region := geom.R(-122, 36, -120, 38)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx)
	defer s.Close() //nolint:errcheck
	im, err := sat.NewLatLonImager(region, 64, 48, sat.DefaultScene(7),
		[]string{"vis", "nir"}, stream.RowByRow, sectors)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := im.Streams(s.Group())
	if err != nil {
		t.Fatal(err)
	}
	for _, band := range []string{"vis", "nir"} {
		if err := s.AddSource(streams[band]); err != nil {
			t.Fatal(err)
		}
	}
	var texts []string
	tw, th := region.Width()/8, region.Height()/6
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			x0, y0 := region.MinX+float64(i)*tw, region.MinY+float64(j)*th
			texts = append(texts, fmt.Sprintf("rselect(ndvi(nir, vis), rect(%g, %g, %g, %g))", x0, y0, x0+tw, y0+th))
		}
	}
	for k := 0; k < 16; k++ {
		texts = append(texts, fmt.Sprintf("ndvi(%snir, vis)", strings.Repeat(" ", k)))
	}
	regs := make([]*Registered, len(texts))
	for i, inner := range texts {
		regs[i] = mustRegister(t, s, "stretch("+inner+", linear, 0, 255)", DeliveryOptions{Colormap: "ndvi"})
	}
	s.Start()
	for _, r := range regs {
		select {
		case <-r.stopped:
		case <-time.After(30 * time.Second):
			t.Fatalf("query %d still running", r.ID)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("query %d: %v", r.ID, err)
		}
	}
	st := s.ServerStats()
	if st.Products != 49 {
		t.Fatalf("products = %d, want 49", st.Products)
	}
	if st.FramesEncoded != 49*sectors {
		t.Fatalf("frames encoded = %d, want 49 × %d", st.FramesEncoded, sectors)
	}
	if want := st.FramesEncoded * 64 * 48; st.PixelsEncoded != want {
		t.Fatalf("pixels encoded = %d, want %d (every frame spans the sector)", st.PixelsEncoded, want)
	}
	// Each frame feeds deflate 48 scanlines of a filter byte + 64 RGBA pixels.
	if want := st.FramesEncoded * 48 * (1 + 4*64); st.DeflateBytesIn != want {
		t.Fatalf("deflate bytes in = %d, want %d", st.DeflateBytesIn, want)
	}
	var delivered int64
	for _, r := range regs {
		delivered += r.DeliveryStats().Frames
	}
	if delivered != 64*sectors {
		t.Fatalf("Σ delivery frames = %d, want 64 × %d", delivered, sectors)
	}
	if pi := regs[63].ProductInfo(); pi.Handles != 16 || pi.FramesEncoded != sectors {
		t.Fatalf("full-sector product = %+v, want 16 handles and %d frames", pi, sectors)
	}
}
