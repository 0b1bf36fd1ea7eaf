package dsms

import (
	"bytes"
	"image/png"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

// testImager is the synthetic two-band instrument the dsms tests run on:
// scene seed 99 over 24×20 sectors of the (-122, 36)–(-120, 38) box.
func testImager(t *testing.T, org stream.Organization, sectors int) *sat.Imager {
	t.Helper()
	im, err := sat.NewLatLonImager(geom.R(-122, 36, -120, 38), 24, 20, sat.DefaultScene(99),
		[]string{"vis", "nir"}, org, sectors)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// startServer brings up a DSMS over the row-by-row test imager and
// returns the server plus a cancel that shuts everything down.
func startServer(t *testing.T, sectors int) (*Server, func()) {
	t.Helper()
	return startOrgServer(t, sectors, stream.RowByRow, nil)
}

// viewFrames opens one viewer's in-order read of reg's frames, from the
// handle's attach point on; the subscription closes when the test ends.
func viewFrames(t testing.TB, reg *Registered) *FrameSub {
	t.Helper()
	sub := reg.SubscribeFrames()
	t.Cleanup(sub.Close)
	return sub
}

func TestServerRegisterAndReceiveFrames(t *testing.T) {
	s, stop := startServer(t, 3)
	defer stop()

	reg, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))",
		DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	got := 0
	frames := viewFrames(t, reg)
	for {
		f, ok := frames.Next(5 * time.Second)
		if !ok {
			break
		}
		got++
		img, err := png.Decode(bytes.NewReader(f.PNG))
		if err != nil {
			t.Fatalf("frame %d not valid PNG: %v", got, err)
		}
		if img.Bounds().Dx() == 0 {
			t.Fatal("empty frame")
		}
	}
	if got != 3 {
		t.Fatalf("received %d frames, want 3", got)
	}
	if reg.Err() != nil {
		t.Fatalf("query error: %v", reg.Err())
	}
}

func TestServerNDVISeriesQuery(t *testing.T) {
	s, stop := startServer(t, 4)
	defer stop()

	reg, err := s.Register(
		"agg_r(ndvi(nir, vis), mean, rect(-121.5, 36.5, -120.5, 37.5))",
		DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	deadline := time.After(10 * time.Second)
	var pts []SeriesPoint
	next := 0
	for len(pts) < 4 {
		select {
		case <-deadline:
			t.Fatalf("timed out with %d series points", len(pts))
		default:
		}
		var more []SeriesPoint
		more, next = reg.Series(next)
		pts = append(pts, more...)
		if len(more) == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, p := range pts {
		if p.NaN {
			continue
		}
		if p.Val < -1.001 || p.Val > 1.001 {
			t.Fatalf("NDVI mean %g out of range", p.Val)
		}
	}
}

func TestServerSharedRestrictionRouting(t *testing.T) {
	// Two queries with disjoint regions: the hub must route each chunk
	// only to interested subscribers; a query over an empty region
	// receives punctuation only.
	s, stop := startServer(t, 2)
	defer stop()

	inRegion, err := s.Register("rselect(vis, rect(-121.8, 36.2, -121.0, 37.0))", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	offRegion, err := s.Register("rselect(vis, rect(10, 10, 20, 20))", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if f, ok := viewFrames(t, inRegion).Next(5 * time.Second); !ok || len(f.PNG) == 0 {
		t.Fatal("in-region query must produce frames")
	}
	// Wait for the off-region query to finish (sources end after 2
	// sectors); it must have received no data points.
	<-offRegion.stopped
	for _, st := range offRegion.OperatorStats() {
		if st.PointsIn != 0 {
			t.Fatalf("off-region operator %s received %d points", st.Name, st.PointsIn)
		}
	}
	// Hub telemetry shows routing happened.
	hs := s.HubStats()
	if len(hs) != 2 {
		t.Fatalf("hub stats = %+v", hs)
	}
}

func TestServerDeregister(t *testing.T) {
	s, stop := startServer(t, 50)
	defer stop()
	reg, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if _, ok := viewFrames(t, reg).Next(5 * time.Second); !ok {
		t.Fatal("no first frame")
	}
	if err := s.Deregister(reg.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Query(reg.ID); ok {
		t.Fatal("query still registered")
	}
	if err := s.Deregister(reg.ID); err == nil {
		t.Fatal("double deregister must fail")
	}
}

func TestServerRejectsBadQueries(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	for _, q := range []string{
		"",
		"nosuchband",
		"rselect(vis)",
		"vis + 3",
	} {
		if _, err := s.Register(q, DeliveryOptions{}); err == nil {
			t.Errorf("Register(%q) must fail", q)
		}
	}
}

func TestServerExplain(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	out, err := s.Explain(`rselect(reproject(ndvi(nir, vis), "utm:10"), rect(400000, 3900000, 700000, 4300000))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-- parsed plan --", "-- optimized plan --", "reproject", "mapped"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	// Fig. 3 complete: HTTP registration, optimization, execution, PNG
	// delivery, stats, deregistration — through the real HTTP stack.
	s, stop := startServer(t, 3)
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	cat, err := c.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 2 {
		t.Fatalf("catalog = %+v", cat)
	}

	exp, err := c.Explain("ndvi(nir, vis)")
	if err != nil || len(exp) == 0 {
		t.Fatalf("explain: %v", err)
	}

	qi, err := c.Register(
		"stretch(rselect(ndvi(nir, vis), rect(-121.7, 36.3, -120.3, 37.7)), linear, 0, 255)",
		"ndvi")
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent queries of other shapes run beside it: a plain crop and
	// a point-wise threshold, each with its own colormap.
	ids := []int64{int64(qi.ID)}
	for _, q := range [][2]string{
		{"rselect(vis, rect(-121.7, 36.3, -120.3, 37.7))", "gray"},
		{"threshold(vis, 600, 0, 1)", "thermal"},
	} {
		other, err := c.Register(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, int64(other.ID))
	}
	s.Start()
	if qi.ID == 0 || qi.OutCRS != "latlon" {
		t.Fatalf("query info = %+v", qi)
	}

	for _, id := range ids {
		frames := 0
		fc := c.Frames(id)
		for {
			f, ok, err := fc.Next(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			frames++
			if _, err := png.Decode(bytes.NewReader(f.PNG)); err != nil {
				t.Fatalf("query %d: bad PNG: %v", id, err)
			}
			if f.Width == 0 || f.Height == 0 {
				t.Fatal("missing frame metadata headers")
			}
		}
		if frames != 3 {
			t.Fatalf("query %d: received %d frames over HTTP, want 3", id, frames)
		}
	}

	list, err := c.Queries()
	if err != nil || len(list) != len(ids) || list[0].ID != qi.ID {
		t.Fatalf("queries list: %v, %+v", err, list)
	}
	if len(list[0].Operators) == 0 {
		t.Fatal("query list missing operator stats")
	}
	if list[0].Delivery == nil || list[0].Delivery.Frames != 3 {
		t.Fatalf("query list delivery stats = %+v", list[0].Delivery)
	}
	if list[0].Delivery.AgeSamples == 0 {
		t.Fatal("delivery stats missing end-to-end age samples")
	}
	if !strings.Contains(list[0].PlanObserved, "observed:") {
		t.Fatalf("plan_observed missing telemetry:\n%s", list[0].PlanObserved)
	}
	if !strings.Contains(list[0].PlanObserved, "engine: pool hits=") {
		t.Fatalf("plan_observed missing engine pool footer:\n%s", list[0].PlanObserved)
	}

	st, err := c.Stats()
	if err != nil || len(st.Hubs) != 2 {
		t.Fatalf("server stats: %v, %+v", err, st)
	}
	if st.Queries != len(ids) || st.UptimeSeconds <= 0 {
		t.Fatalf("server stats gauges = %+v", st)
	}
	for _, h := range st.Hubs {
		if h.AgeSamples == 0 {
			t.Fatalf("hub %s missing ingest-age samples", h.Band)
		}
	}

	for _, id := range ids {
		if err := c.Deregister(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Register("garbage(", ""); err == nil {
		t.Fatal("bad query must 400 over HTTP")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	// Acceptance: GET /metrics on a server with a live query returns valid
	// Prometheus text exposition carrying the per-operator counters, the
	// processing-latency histogram, and the end-to-end delivery chunk-age
	// histogram.
	s, stop := startServer(t, 2)
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	reg, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))",
		DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	frames := viewFrames(t, reg)
	for {
		if _, ok := frames.Next(5 * time.Second); !ok {
			break
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"geostreams_uptime_seconds",
		"geostreams_queries 1",
		`geostreams_hub_delivered_chunks_total{band="vis"}`,
		`geostreams_hub_chunk_age_seconds_bucket{band="vis",le="+Inf"}`,
		"geostreams_operator_chunks_in_total{",
		"geostreams_operator_points_out_total{",
		"geostreams_operator_peak_buffered_points{",
		"# TYPE geostreams_operator_latency_seconds histogram",
		"geostreams_operator_latency_seconds_bucket{",
		"# TYPE geostreams_delivery_chunk_age_seconds histogram",
		`geostreams_delivery_chunk_age_seconds_bucket{query="1",le="+Inf"}`,
		"geostreams_delivery_frames_total{",
		"go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every non-comment line must parse as "name{labels} value" or
	// "name value" — a cheap validity check of the exposition format.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("non-numeric value in line %q", line)
		}
	}

	// The client helper fetches the same payload.
	viaClient, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(viaClient, "geostreams_queries") {
		t.Fatal("client Metrics() missing families")
	}
}

func TestChunkDequeShedsOldestData(t *testing.T) {
	var dropped atomic.Int64
	d := newChunkDeque(2, &dropped, nil)
	lat, err := geom.NewLattice(0, 0, 1, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ts geom.Timestamp) *stream.Chunk {
		c, err := stream.NewGridChunk(ts, lat, []float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	d.push(mk(1))
	d.push(stream.NewEndOfSector(1, lat))
	d.push(mk(2))
	d.push(mk(3)) // sheds chunk 1, keeps punctuation
	if dropped.Load() != 1 {
		t.Fatalf("dropped = %d", dropped.Load())
	}
	c1, _ := d.pop()
	if c1.Kind != stream.KindEndOfSector {
		t.Fatalf("first pop = %v (punctuation must survive shedding)", c1.Kind)
	}
	c2, _ := d.pop()
	c3, _ := d.pop()
	if c2.T != 2 || c3.T != 3 {
		t.Fatalf("data order wrong: %d, %d", c2.T, c3.T)
	}
	d.close()
	if _, ok := d.pop(); ok {
		t.Fatal("closed empty deque must report !ok")
	}
	d.push(mk(9)) // push after close is a no-op
}

// TestHubBroadcastsLocatableChunks: the hub hands every subscriber every
// punctuation and every data chunk that has a location, and drops a points
// chunk without one (no points, or a NaN coordinate). GSP ingest accepts
// both, so both can reach a hub.
func TestHubBroadcastsLocatableChunks(t *testing.T) {
	lat, err := geom.NewLattice(0, 0, 1, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := newHub(stream.Info{Band: "vis"}, nil, nil)
	_, a := h.subscribe()
	_, b := h.subscribe()
	pt := func(x float64) stream.PointValue {
		return stream.PointValue{P: geom.Point{S: geom.Vec2{X: x, Y: 0.5}, T: 1}, V: 7}
	}
	grid, err := stream.NewGridChunk(1, lat, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h.route(grid)
	h.route(&stream.Chunk{Kind: stream.KindPoints, T: 1})
	h.route(&stream.Chunk{Kind: stream.KindPoints, T: 1, Points: []stream.PointValue{pt(0.5), pt(math.NaN())}})
	h.route(&stream.Chunk{Kind: stream.KindPoints, T: 1, Points: []stream.PointValue{pt(0.5), pt(1.5)}})
	h.route(stream.NewEndOfSector(1, lat))
	h.closeAll()
	want := []stream.Kind{stream.KindGrid, stream.KindPoints, stream.KindEndOfSector}
	for i, st := range []*stream.Stream{a, b} {
		var got []stream.Kind
		for c := range st.C {
			got = append(got, c.Kind)
			if c.Kind == stream.KindPoints && len(c.Points) != 2 {
				t.Fatalf("subscriber %d got a %d-point chunk, want the 2-point one", i, len(c.Points))
			}
			c.Release()
		}
		if len(got) != len(want) {
			t.Fatalf("subscriber %d got %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("subscriber %d got %v, want %v", i, got, want)
			}
		}
	}
}

// A subscription keeps serving a finished query's retained frames: close
// ends the stream only once the cursor has drained the ring.
func TestFrameSubDrainsAfterClose(t *testing.T) {
	h := newFrameHub(2)
	r := &Registered{product: &product{frames: h}}
	f := &Frame{Sector: 9}
	f.refs.Store(1)
	h.publish(f)
	h.close()
	sub := r.SubscribeFrames()
	defer sub.Close()
	got, ok := sub.Next(0)
	if !ok || got.Sector != 9 || sub.Cursor() != 1 {
		t.Fatalf("post-close drain = %+v ok=%v cursor=%d", got, ok, sub.Cursor())
	}
	got.Release()
	start := time.Now()
	if _, ok := sub.Next(time.Minute); ok || !sub.Ended() || time.Since(start) > 10*time.Second {
		t.Fatal("closed drained hub must report !ok and Ended immediately")
	}
}

func TestSeriesBuffer(t *testing.T) {
	b := newSeriesBuffer(3)
	for i := 1; i <= 5; i++ {
		b.push(SeriesPoint{T: geom.Timestamp(i)})
	}
	pts, next := b.since(0)
	if len(pts) != 3 || pts[0].T != 3 || next != 5 {
		t.Fatalf("since(0) = %+v next=%d", pts, next)
	}
	pts, next = b.since(next)
	if len(pts) != 0 || next != 5 {
		t.Fatalf("caught-up since = %+v next=%d", pts, next)
	}
	b.push(SeriesPoint{T: 6})
	pts, _ = b.since(next)
	if len(pts) != 1 || pts[0].T != 6 {
		t.Fatalf("incremental since = %+v", pts)
	}
}
