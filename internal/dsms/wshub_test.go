package dsms

import (
	"bytes"
	"context"
	"image"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/query"
	"geostreams/internal/raster"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
	"geostreams/internal/ws"
)

// pollFrames drains the cursor form of the long-poll endpoint from the
// retention horizon to end-of-stream, returning PNG bytes by sequence.
func pollFrames(t *testing.T, frameURL string) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	cursor := "oldest"
	for {
		resp, err := http.Get(frameURL + "?cursor=" + cursor + "&wait=5000")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if next := resp.Header.Get("X-Geostreams-Cursor"); next != "" {
			cursor = next
		}
		if resp.StatusCode == http.StatusNoContent {
			if resp.Header.Get("X-Geostreams-End") == "1" {
				return got
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		seq, err := strconv.ParseUint(resp.Header.Get("X-Geostreams-Seq"), 10, 64)
		if err != nil {
			t.Fatalf("bad seq header: %v", err)
		}
		got[seq] = body
	}
}

// TestWebSocketDeliveryEndToEnd dials the real upgrade endpoint, answers
// pings, and verifies the push subscription delivers the full frame
// sequence as decodable binary messages and then closes cleanly (1000)
// when the query ends.
func TestWebSocketDeliveryEndToEnd(t *testing.T) {
	s, stop := startServer(t, 3)
	defer stop()

	reg, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))",
		DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	url := "ws" + strings.TrimPrefix(srv.URL, "http") +
		"/queries/" + strconv.FormatInt(int64(reg.ID), 10) + "/ws"
	c, err := ws.Dial(url, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var frames []WSFrame
	deadline := time.Now().Add(20 * time.Second)
	for {
		c.SetReadDeadline(deadline) //nolint:errcheck
		op, p, err := c.ReadMessage()
		if err != nil {
			cl, ok := err.(*ws.Closed)
			if !ok {
				t.Fatalf("read: %v", err)
			}
			if cl.Code != 1000 {
				t.Fatalf("close code = %d (%q), want 1000", cl.Code, cl.Reason)
			}
			break
		}
		switch op {
		case ws.OpPing:
			if err := c.WritePong(p, time.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
		case ws.OpBinary:
			f, err := DecodeWSFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
	}
	if len(frames) != 3 {
		t.Fatalf("received %d frames, want 3 (one per sector)", len(frames))
	}
	for i, f := range frames {
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
		if f.Shed != 0 {
			t.Fatalf("frame %d reports shed %d, want 0", i, f.Shed)
		}
		img, err := png.Decode(bytes.NewReader(f.PNG))
		if err != nil {
			t.Fatalf("frame %d: bad PNG: %v", i, err)
		}
		b := img.Bounds()
		if b.Dx() != f.Width || b.Dy() != f.Height {
			t.Fatalf("frame %d: PNG %dx%d but header says %dx%d",
				i, b.Dx(), b.Dy(), f.Width, f.Height)
		}
	}
	st := s.WSStats()
	if st.ConnectionsTotal != 1 || st.Frames != 3 {
		t.Fatalf("WSStats = %+v, want 1 connection / 3 frames", st)
	}
	// Encode-once: the pipeline rendered each frame a single time no
	// matter how it was delivered.
	if ds := reg.DeliveryStats(); ds.Frames != 3 {
		t.Fatalf("delivery encoded %d frames, want 3", ds.Frames)
	}
}

// TestWebSocketPingPongLifecycle holds a connection open on an idle query
// and checks both halves of the keep-alive: a peer that answers pings
// stays connected, and one that goes silent is dropped within the pong
// grace window (pinned by the pong-miss counter).
func TestWebSocketPingPongLifecycle(t *testing.T) {
	// Enough sectors that the query outlives the whole lifecycle: frames
	// keep flowing, but only pongs extend the peer's read deadline.
	s, stop := startServer(t, 10000)
	defer stop()
	s.wsPingEvery = 200 * time.Millisecond

	reg, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))",
		DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	url := "ws" + strings.TrimPrefix(srv.URL, "http") +
		"/queries/" + strconv.FormatInt(int64(reg.ID), 10) + "/ws"
	c, err := ws.Dial(url, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Phase 1: answer two pings; the connection must survive well past the
	// pong grace (3x ping = 600ms). The grace is generous so a loaded host
	// cannot let it lapse between an answered pong and the check below.
	for answered := 0; answered < 2; {
		c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		op, p, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("dropped while answering pings: %v", err)
		}
		if op == ws.OpPing {
			if err := c.WritePong(p, time.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			answered++
		}
	}
	if got := s.WSStats().ActiveConnections; got != 1 {
		t.Fatalf("active connections = %d after answered pings, want 1", got)
	}

	// Phase 2: go silent. The server must notice the missed pongs and drop
	// the connection; our next read fails once the socket dies.
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for {
		// Keep draining pings and frames without ever ponging back.
		if _, _, err := c.ReadMessage(); err != nil {
			break // server hung up on us, as it should
		}
	}
	waitUntil := time.Now().Add(5 * time.Second)
	for s.WSStats().ActiveConnections != 0 && time.Now().Before(waitUntil) {
		time.Sleep(5 * time.Millisecond)
	}
	st := s.WSStats()
	if st.ActiveConnections != 0 {
		t.Fatalf("connection still active after going silent: %+v", st)
	}
	if st.PongMisses == 0 {
		t.Fatalf("pong-miss counter not incremented: %+v", st)
	}
	if st.Pings < 3 {
		t.Fatalf("pings = %d, want at least 3 over the lifecycle", st.Pings)
	}
}

// TestWebSocketSharesEncodeWithLongPoll runs a WS subscriber and an HTTP
// long-poller against the same query and checks the PNG bytes are
// identical — one encode, two transports.
func TestWebSocketSharesEncodeWithLongPoll(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()

	reg, err := s.Register("rselect(nir, rect(-121.6, 36.4, -120.4, 37.6))",
		DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	base := srv.URL + "/queries/" + strconv.FormatInt(int64(reg.ID), 10)

	wsURL := "ws" + strings.TrimPrefix(base, "http") + "/ws"
	c, err := ws.Dial(wsURL, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	viaWS := map[uint64][]byte{}
	c.SetReadDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
	for {
		op, p, err := c.ReadMessage()
		if err != nil {
			if _, ok := err.(*ws.Closed); ok {
				break
			}
			t.Fatalf("read: %v", err)
		}
		switch op {
		case ws.OpPing:
			c.WritePong(p, time.Now().Add(time.Second)) //nolint:errcheck
		case ws.OpBinary:
			f, err := DecodeWSFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			viaWS[f.Seq] = append([]byte(nil), f.PNG...)
		}
	}
	if len(viaWS) != 2 {
		t.Fatalf("ws saw %d frames, want 2", len(viaWS))
	}

	// The ring retains both frames (cap 8 > 2), so a cursor poll replays
	// the same cached bytes the socket just received.
	viaPoll := pollFrames(t, base+"/frame")
	if len(viaPoll) != 2 {
		t.Fatalf("long-poll saw %d frames, want 2", len(viaPoll))
	}
	for seq, png := range viaPoll {
		if !bytes.Equal(png, viaWS[seq]) {
			t.Fatalf("seq %d: long-poll bytes differ from ws bytes", seq)
		}
	}
	if ds := reg.DeliveryStats(); ds.Frames != 2 {
		t.Fatalf("delivery encoded %d frames, want 2 despite two transports", ds.Frames)
	}
}

// oracleRenders runs a query on the plain library path — Parse → Build →
// Assembler → Render, no server, no optimizer — over the same synthetic
// imager startServer mounts, and returns each sector's rendered frame.
func oracleRenders(t *testing.T, q, colormap string, sectors int) []*image.RGBA {
	t.Helper()
	g := stream.NewGroup(context.Background())
	im, err := sat.NewLatLonImager(geom.R(-122, 36, -120, 38), 24, 20, sat.DefaultScene(99),
		[]string{"vis", "nir"}, stream.RowByRow, sectors)
	if err != nil {
		t.Fatal(err)
	}
	sources, err := im.Streams(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.Parse(q, map[string]bool{"vis": true, "nir": true})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := query.Build(g, plan, sources)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := raster.ColormapByName(colormap)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*image.RGBA
	asm := raster.NewAssembler()
	for c := range out.C {
		imgs, err := asm.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, img := range imgs {
			frames = append(frames, img.Render(cm, out.Info.VMin, out.Info.VMax))
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestWebSocketFramesMatchOracleRender: the bytes pushed over the wire
// decode to exactly the pixels the library oracle renders — the streaming
// PNG writer and the render-once backing change no delivered pixel.
func TestWebSocketFramesMatchOracleRender(t *testing.T) {
	const q = "stretch(ndvi(nir, vis), linear, 0, 255)"
	want := oracleRenders(t, q, "ndvi", 2)
	if len(want) != 2 {
		t.Fatalf("oracle rendered %d frames, want 2", len(want))
	}

	s, stop := startServer(t, 2)
	defer stop()
	reg, err := s.Register(q, DeliveryOptions{Colormap: "ndvi"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c, err := ws.Dial("ws"+strings.TrimPrefix(srv.URL, "http")+
		"/queries/"+strconv.FormatInt(int64(reg.ID), 10)+"/ws", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got := 0
	deadline := time.Now().Add(20 * time.Second)
	for got < len(want) {
		c.SetReadDeadline(deadline) //nolint:errcheck
		op, p, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		switch op {
		case ws.OpPing:
			if err := c.WritePong(p, time.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
		case ws.OpBinary:
			f, err := DecodeWSFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			img, err := png.Decode(bytes.NewReader(f.PNG))
			if err != nil {
				t.Fatalf("frame %d: bad PNG: %v", f.Seq, err)
			}
			ref := want[f.Seq]
			if img.Bounds() != ref.Bounds() {
				t.Fatalf("frame %d: bounds %v, oracle %v", f.Seq, img.Bounds(), ref.Bounds())
			}
			b := ref.Bounds()
			for y := b.Min.Y; y < b.Max.Y; y++ {
				for x := b.Min.X; x < b.Max.X; x++ {
					r1, g1, b1, a1 := img.At(x, y).RGBA()
					r2, g2, b2, a2 := ref.At(x, y).RGBA()
					if r1 != r2 || g1 != g2 || b1 != b2 || a1 != a2 {
						t.Fatalf("frame %d pixel (%d,%d) = %v, oracle %v",
							f.Seq, x, y, img.At(x, y), ref.At(x, y))
					}
				}
			}
			got++
		}
	}
}
