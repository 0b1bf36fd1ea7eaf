package dsms

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geostreams/internal/coord"
	"geostreams/internal/geom"
	"geostreams/internal/raster"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

// startWireServer brings up a DSMS with a GSP ingest listener on a free
// port and returns the server, the listener address, and a stop func.
func startWireServer(t *testing.T) (*Server, string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := NewServer(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	go s.ServeIngest(ln) //nolint:errcheck // returns on shutdown
	return s, ln.Addr().String(), func() {
		cancel()
		s.Close() //nolint:errcheck
	}
}

// waitForBands polls the catalog until every named band has been mounted
// by an incoming feed.
func waitForBands(t *testing.T, s *Server, bands ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		cat := s.Catalog()
		missing := ""
		for _, b := range bands {
			if _, ok := cat[b]; !ok {
				missing = b
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("band %q never attached; catalog = %v", missing, cat)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitForSubscriber polls until the query has an active push subscriber
// (attach and initial credit travel over the wire asynchronously).
func waitForSubscriber(t *testing.T, reg *Registered) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.WireStats().ActiveSubscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The attach is visible before the client's initial credit grant has
	// been processed; give the grant a beat to land.
	time.Sleep(100 * time.Millisecond)
}

// feedImager streams the standard two-band test imager over GSP to addr
// from its own group (a separate process in spirit).
func feedImager(t *testing.T, addr string, org stream.Organization, sectors int) *stream.Group {
	t.Helper()
	g := stream.NewGroup(context.Background())
	im, err := sat.NewLatLonImager(geom.R(-122, 36, -120, 38), 24, 20, sat.DefaultScene(99),
		[]string{"vis", "nir"}, org, sectors)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := im.Streams(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"vis", "nir"} {
		src := streams[b]
		g.Go(func(ctx context.Context) error {
			err := wire.FeedStream(ctx, addr, src, wire.FeedOptions{}, nil)
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		})
	}
	return g
}

// referenceFrames runs the query against an identical in-process imager
// (no network) and returns the delivered PNGs keyed by sector.
func referenceFrames(t *testing.T, org stream.Organization, sectors int, q, colormap string) map[geom.Timestamp][]byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx)
	defer s.Close() //nolint:errcheck
	im, err := sat.NewLatLonImager(geom.R(-122, 36, -120, 38), 24, 20, sat.DefaultScene(99),
		[]string{"vis", "nir"}, org, sectors)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := im.Streams(s.Group())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"vis", "nir"} {
		if err := s.AddSource(streams[b]); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := s.Register(q, DeliveryOptions{Colormap: colormap})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	frames := map[geom.Timestamp][]byte{}
	view := viewFrames(t, reg)
	for {
		f, ok := view.Next(10 * time.Second)
		if !ok {
			break
		}
		frames[f.Sector] = f.PNG
	}
	if err := reg.Err(); err != nil {
		t.Fatalf("reference query error: %v", err)
	}
	return frames
}

// renderSubscription consumes a push subscription to its end, assembling
// and encoding frames exactly as the server's delivery stage does.
func renderSubscription(sub *wire.Subscription, colormap string) (map[geom.Timestamp][]byte, error) {
	cm, err := raster.ColormapByName(colormap)
	if err != nil {
		return nil, err
	}
	asm := raster.NewAssembler()
	defer asm.Discard()
	out := map[geom.Timestamp][]byte{}
	emit := func(imgs []*raster.Image) error {
		for _, img := range imgs {
			var buf bytes.Buffer
			if err := img.EncodePNG(&buf, cm, sub.Info.VMin, sub.Info.VMax); err != nil {
				return err
			}
			out[img.T] = append([]byte(nil), buf.Bytes()...)
			img.Recycle()
		}
		return nil
	}
	for {
		c, err := sub.Next()
		if errors.Is(err, io.EOF) {
			imgs, ferr := asm.Flush()
			if ferr != nil {
				return nil, ferr
			}
			return out, emit(imgs)
		}
		if err != nil {
			return nil, err
		}
		imgs, err := asm.Add(c)
		if err != nil {
			return nil, err
		}
		if err := emit(imgs); err != nil {
			return nil, err
		}
	}
}

// TestWireEndToEndBitIdentical is the PR's acceptance path: geofeed-style
// senders for both organizations stream both bands over GSP into the
// server, an NDVI query runs, and both the server-rendered frames and the
// frames a push subscriber assembles client-side are byte-identical to an
// in-process run with the same seed.
func TestWireEndToEndBitIdentical(t *testing.T) {
	const q = "stretch(rselect(ndvi(nir, vis), rect(-121.7, 36.3, -120.3, 37.7)), linear, 0, 255)"
	const sectors = 3
	for _, tc := range []struct {
		name string
		org  stream.Organization
	}{
		{"row-by-row", stream.RowByRow},
		{"image-by-image", stream.ImageByImage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceFrames(t, tc.org, sectors, q, "ndvi")
			if len(want) != sectors {
				t.Fatalf("reference run produced %d frames, want %d", len(want), sectors)
			}

			s, addr, stop := startWireServer(t)
			defer stop()
			g := feedImager(t, addr, tc.org, sectors)
			waitForBands(t, s, "vis", "nir")

			reg, err := s.Register(q, DeliveryOptions{Colormap: "ndvi"})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			sub, err := NewClient(ts.URL).subscribe(int64(reg.ID), 256, "")
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close() //nolint:errcheck
			if sub.Info.Band != reg.Info.Band {
				t.Fatalf("subscription hello band = %q, want %q", sub.Info.Band, reg.Info.Band)
			}
			waitForSubscriber(t, reg)
			s.Start()

			type rendered struct {
				pngs map[geom.Timestamp][]byte
				err  error
			}
			subDone := make(chan rendered, 1)
			go func() {
				pngs, err := renderSubscription(sub, "ndvi")
				subDone <- rendered{pngs, err}
			}()

			got := map[geom.Timestamp][]byte{}
			view := viewFrames(t, reg)
			for {
				f, ok := view.Next(10 * time.Second)
				if !ok {
					break
				}
				got[f.Sector] = f.PNG
			}
			if err := reg.Err(); err != nil {
				t.Fatalf("networked query error: %v", err)
			}
			if err := g.Wait(); err != nil {
				t.Fatalf("feed error: %v", err)
			}

			if len(got) != len(want) {
				t.Fatalf("networked run produced %d frames, want %d", len(got), len(want))
			}
			for sector, png := range want {
				if !bytes.Equal(got[sector], png) {
					t.Errorf("sector %d: networked frame differs from in-process frame", sector)
				}
			}

			var r rendered
			select {
			case r = <-subDone:
			case <-time.After(10 * time.Second):
				t.Fatal("subscription never ended")
			}
			if r.err != nil {
				t.Fatalf("subscription error: %v", r.err)
			}
			if ws := reg.WireStats(); ws.DroppedChunks != 0 {
				t.Fatalf("prompt subscriber lost %d chunks", ws.DroppedChunks)
			}
			if len(r.pngs) != len(want) {
				t.Fatalf("subscriber rendered %d frames, want %d", len(r.pngs), len(want))
			}
			for sector, png := range want {
				if !bytes.Equal(r.pngs[sector], png) {
					t.Errorf("sector %d: subscriber-rendered frame differs from in-process frame", sector)
				}
			}
		})
	}
}

// wireTestInfo is a tiny hand-driven band for the flap tests.
func wireTestInfo(t *testing.T, band string) stream.Info {
	t.Helper()
	crs, err := coord.Parse("latlon")
	if err != nil {
		t.Fatal(err)
	}
	lat, err := geom.NewLattice(-122, 36, 0.5, 0.5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return stream.Info{
		Band: band, CRS: crs, Org: stream.RowByRow, Stamp: stream.StampSectorID,
		SectorGeom: lat, HasSectorMeta: true, VMin: 0, VMax: 255,
	}
}

// sendSector writes one full sector (three row chunks + end-of-sector)
// for the wireTestInfo geometry.
func sendSector(t *testing.T, w *wire.Writer, info stream.Info, sector geom.Timestamp) {
	t.Helper()
	full := info.SectorGeom
	for row := 0; row < full.H; row++ {
		rl, err := geom.NewLattice(full.X0, full.Y0+float64(row)*full.DY, full.DX, full.DY, full.W, 1)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, full.W)
		for i := range vals {
			vals[i] = float64(int(sector)*100 + row*10 + i)
		}
		c, err := stream.NewGridChunk(sector, rl, vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Chunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Chunk(stream.NewEndOfSector(sector, full)); err != nil {
		t.Fatal(err)
	}
}

// waitForHubState polls until the named band's hub reports the state.
func waitForHubState(t *testing.T, s *Server, band, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, h := range s.HubStats() {
			if h.Band == band && h.State == state {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("band %q never reached state %q: %+v", band, state, s.HubStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireIngestReconnectAcrossFlap drops a feed connection mid-stream
// (no bye — a network flap) and redials: PR-3 supervision must carry the
// band through reconnecting back to live, the query keeps producing
// frames, and a final bye ends the band cleanly.
func TestWireIngestReconnectAcrossFlap(t *testing.T) {
	s, addr, stop := startWireServer(t)
	defer stop()
	info := wireTestInfo(t, "wb")

	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w1 := wire.NewWriter(conn1)
	if err := w1.Hello(info); err != nil {
		t.Fatal(err)
	}
	waitForBands(t, s, "wb")

	reg, err := s.Register("wb", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	sendSector(t, w1, info, 1)
	view := viewFrames(t, reg)
	f, ok := view.Next(5 * time.Second)
	if !ok || f.Sector != 1 {
		t.Fatalf("first frame = %+v, %v", f, ok)
	}

	conn1.Close() // flap: no bye
	waitForHubState(t, s, "wb", "reconnecting")

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	w2 := wire.NewWriter(conn2)
	if err := w2.Hello(info); err != nil {
		t.Fatal(err)
	}
	waitForHubState(t, s, "wb", "live")
	sendSector(t, w2, info, 2)
	f, ok = view.Next(10 * time.Second)
	if !ok || f.Sector != 2 {
		t.Fatalf("post-reconnect frame = %+v, %v", f, ok)
	}

	// A clean bye ends the band: no reconnect churn, the query finishes.
	if err := w2.Bye(); err != nil {
		t.Fatal(err)
	}
	if _, ok := view.Next(10 * time.Second); ok {
		t.Fatal("frames after clean bye")
	}
	if err := reg.Err(); err != nil {
		t.Fatalf("query error: %v", err)
	}
	var hub *HubStats
	for _, h := range s.HubStats() {
		if h.Band == "wb" {
			hs := h
			hub = &hs
		}
	}
	if hub == nil || hub.Reconnects < 1 {
		t.Fatalf("hub stats = %+v, want >= 1 reconnect", hub)
	}
	if hub.State != "dead" {
		t.Fatalf("hub state after bye = %q, want dead", hub.State)
	}
	if st := s.IngestStats(); st.ConnectionsTotal < 2 || st.Chunks < 8 {
		t.Fatalf("ingest stats = %+v", st)
	}
}

// TestWireIngestRejectsDuplicateLiveBand: a second hello for a band whose
// feed is still live must be answered with an error frame, not
// interleaved into the hub.
func TestWireIngestRejectsDuplicateLiveBand(t *testing.T) {
	s, addr, stop := startWireServer(t)
	defer stop()
	info := wireTestInfo(t, "db")

	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	if err := wire.NewWriter(conn1).Hello(info); err != nil {
		t.Fatal(err)
	}
	waitForBands(t, s, "db")

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.NewWriter(conn2).Hello(info); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	f, err := wire.NewReader(conn2).Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "already live") {
		t.Fatalf("duplicate feed got %s %q, want error frame", wire.FrameTypeName(f.Type), f.Payload)
	}
	if st := s.IngestStats(); st.Rejected < 1 {
		t.Fatalf("ingest stats = %+v, want a rejection", st)
	}
}

// TestWireEgressBackpressureKeepsHubUnblocked: a subscriber that stops
// consuming (window 1, never reads) must not stall the pipeline — the
// server drops chunks for it, counts them, and the polling client keeps
// receiving every frame.
func TestWireEgressBackpressureKeepsHubUnblocked(t *testing.T) {
	const sectors = 6
	s, stop := startServer(t, sectors)
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	reg, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.subscribe(int64(reg.ID), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() //nolint:errcheck
	waitForSubscriber(t, reg)
	s.Start()

	frames := 0
	view := viewFrames(t, reg)
	for {
		f, ok := view.Next(5 * time.Second)
		if !ok {
			break
		}
		if len(f.PNG) == 0 {
			t.Fatal("empty frame")
		}
		frames++
	}
	if frames != sectors {
		t.Fatalf("slow subscriber stalled the pipeline: %d frames, want %d", frames, sectors)
	}
	ws := reg.WireStats()
	if ws.DroppedChunks == 0 {
		t.Fatalf("no backpressure drops recorded: %+v", ws)
	}
	if ws.SubscribersTotal != 1 {
		t.Fatalf("wire stats = %+v", ws)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "geostreams_wire_backpressure_dropped_total") {
		t.Fatal("metrics missing geostreams_wire_backpressure_dropped_total")
	}
}

// TestWireIngestDeadBandRejectsRedial: once a band's reconnect budget is
// exhausted (supervision over, band dead), a feeder dialing back in must
// receive a definitive error frame — not a connection parked forever on
// a waiter channel nobody reads.
func TestWireIngestDeadBandRejectsRedial(t *testing.T) {
	oldPolicy, oldWait := wireRetryPolicy, wireReconnectWait
	wireRetryPolicy = RetryPolicy{MaxAttempts: 2, Base: time.Millisecond, Max: time.Millisecond}
	wireReconnectWait = 50 * time.Millisecond
	defer func() { wireRetryPolicy, wireReconnectWait = oldPolicy, oldWait }()

	s, addr, stop := startWireServer(t)
	defer stop()
	info := wireTestInfo(t, "doomed")

	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.NewWriter(conn1).Hello(info); err != nil {
		t.Fatal(err)
	}
	waitForBands(t, s, "doomed")
	s.Start()
	conn1.Close() // flap with no redial: the retry budget burns out
	waitForHubState(t, s, "doomed", "dead")

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.NewWriter(conn2).Hello(info); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	f, err := wire.NewReader(conn2).Next()
	if err != nil {
		t.Fatalf("redial to dead band got no answer: %v", err)
	}
	if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "dead") {
		t.Fatalf("redial to dead band got %s %q, want a dead-band error frame",
			wire.FrameTypeName(f.Type), f.Payload)
	}
	// The rejected connection must be closed, not leaked.
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := wire.NewReader(conn2).Next(); err == nil {
		t.Fatal("dead-band connection stayed open after the error frame")
	}
}

// TestWireBandDeadDrainsQueuedHandoff: a reconnect feed that was queued
// just before the supervisor gave up must be drained and rejected by
// markDead — the check-then-enqueue in handleFeed and the drain here are
// serialized by the ingest lock, so no handoff can be parked with no
// consumer.
func TestWireBandDeadDrainsQueuedHandoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx)
	defer s.Close() //nolint:errcheck

	feeder, srvSide := net.Pipe()
	defer feeder.Close()
	w := make(chan *feedHandoff, 1)
	w <- &feedHandoff{conn: srvSide, rd: wire.NewReader(srvSide), info: wireTestInfo(t, "parked")}
	s.wire.waiters = map[string]chan *feedHandoff{"parked": w}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.wireBandDead("parked")
	}()

	feeder.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	f, err := wire.NewReader(feeder).Next()
	if err != nil {
		t.Fatalf("queued feeder got no answer: %v", err)
	}
	if f.Type != wire.FrameError || !strings.Contains(string(f.Payload), "dead") {
		t.Fatalf("queued feeder got %s %q, want a dead-band error frame",
			wire.FrameTypeName(f.Type), f.Payload)
	}
	<-done
	if len(w) != 0 {
		t.Fatal("handoff still queued after wireBandDead")
	}
	if got := s.IngestStats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// And the band is now refused outright: markDead flagged it dead.
	if !s.wire.dead["parked"] {
		t.Fatal("band not flagged dead")
	}
}
