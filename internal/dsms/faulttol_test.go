package dsms

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"geostreams/internal/coord"
	"geostreams/internal/faults"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// --- panic isolation -------------------------------------------------------

// TestQueryPanicIsolation is the headline acceptance test: an operator
// panicking mid-stream kills only its own query. The server keeps serving
// the other query, the panic shows up in the dead query's Err() and /stats
// entry, and geostreams_query_panics_total increments on /metrics.
func TestQueryPanicIsolation(t *testing.T) {
	s, stop := startServer(t, 3)
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fault seam: the first registered pipeline gets a stage that panics
	// after 3 data chunks; later pipelines are untouched.
	n := 0
	s.mu.Lock()
	s.pipelineWrap = func(g *stream.Group, out *stream.Stream) *stream.Stream {
		n++
		if n == 1 {
			return faults.Wrap(g, out, faults.Policy{PanicAfter: 3})
		}
		return out
	}
	s.mu.Unlock()

	doomed, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	// The healthy query must deliver every sector despite the sibling panic.
	frames := 0
	view := viewFrames(t, healthy)
	for {
		if _, ok := view.Next(5 * time.Second); !ok {
			break
		}
		frames++
	}
	if frames != 3 {
		t.Fatalf("healthy query delivered %d frames, want 3", frames)
	}
	if healthy.Err() != nil {
		t.Fatalf("healthy query error: %v", healthy.Err())
	}

	select {
	case <-doomed.stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("panicked query never reached a terminal state")
	}
	if !stream.IsPanic(doomed.Err()) {
		t.Fatalf("doomed.Err() = %v, want recovered panic", doomed.Err())
	}
	if got := s.QueryPanics(); got != 1 {
		t.Fatalf("QueryPanics = %d, want 1", got)
	}

	// /stats carries the per-query lifecycle entry.
	st := s.ServerStats()
	if st.QueryPanics != 1 {
		t.Fatalf("/stats query_panics = %d", st.QueryPanics)
	}
	found := false
	for _, qs := range st.QueryStatus {
		if qs.ID == doomed.ID {
			found = true
			if qs.State != "panicked" || !strings.Contains(qs.Error, "injected panic") {
				t.Fatalf("doomed query status = %+v", qs)
			}
		}
	}
	if !found {
		t.Fatal("/stats missing the panicked query's entry")
	}

	// /metrics carries the counter.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "geostreams_query_panics_total 1") {
		t.Fatal("/metrics missing geostreams_query_panics_total 1")
	}
}

// --- source supervision ----------------------------------------------------

// segmentedSource produces band segments on demand: each connection carries
// `per` sectors (grid chunk + punctuation), then ends — a flapping uplink.
type segmentedSource struct {
	mu       sync.Mutex
	lat      geom.Lattice
	info     stream.Info
	next     geom.Timestamp
	per      int
	conns    int
	maxConns int // further connections fail permanently
	failures int // reconnect attempts to fail before each success
	failLeft int
	attempts int
}

func newSegmentedSource(t *testing.T, per, maxConns, failures int) *segmentedSource {
	t.Helper()
	lat, err := geom.NewLattice(-122, 38, 0.5, -0.5, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return &segmentedSource{
		lat: lat,
		info: stream.Info{
			Band: "vis", CRS: coord.LatLon{}, Org: stream.ImageByImage,
			SectorGeom: lat, HasSectorMeta: true, VMin: 0, VMax: 1023,
		},
		per: per, maxConns: maxConns, failures: failures, failLeft: failures,
	}
}

func (ss *segmentedSource) segment(g *stream.Group) *stream.Stream {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.conns++
	var chunks []*stream.Chunk
	for i := 0; i < ss.per; i++ {
		c, err := stream.NewGridChunk(ss.next, ss.lat, make([]float64, ss.lat.NumPoints()))
		if err != nil {
			panic(err)
		}
		c.StampIngest(time.Now().UnixNano())
		chunks = append(chunks, c, stream.NewEndOfSector(ss.next, ss.lat))
		ss.next++
	}
	return stream.FromChunks(g, ss.info, chunks)
}

func (ss *segmentedSource) reconnect(g *stream.Group) func(context.Context) (*stream.Stream, error) {
	return func(context.Context) (*stream.Stream, error) {
		ss.mu.Lock()
		ss.attempts++
		if ss.conns >= ss.maxConns {
			ss.mu.Unlock()
			return nil, errors.New("uplink gone for good")
		}
		if ss.failLeft > 0 {
			ss.failLeft--
			ss.mu.Unlock()
			return nil, errors.New("uplink still down")
		}
		ss.failLeft = ss.failures
		ss.mu.Unlock()
		return ss.segment(g), nil
	}
}

// TestSupervisedSourceResumesDelivery is the second acceptance test: a
// supervised source that drops and is restarted by its Reconnect factory
// resumes delivery to existing subscribers without re-registration, with
// the reconnect count visible in hub stats/metrics.
func TestSupervisedSourceResumesDelivery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx)
	defer s.Close() //nolint:errcheck

	// 3 connections × 2 sectors, one failed attempt before each reconnect.
	ss := newSegmentedSource(t, 2, 3, 1)
	err := s.AddSourceSpec(SourceSpec{
		Stream:    ss.segment(s.Group()),
		Reconnect: ss.reconnect(s.Group()),
		Retry: RetryPolicy{
			MaxAttempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	reg, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	// One registration must see every sector across all three connections.
	frames := 0
	view := viewFrames(t, reg)
	for {
		if _, ok := view.Next(5 * time.Second); !ok {
			break
		}
		frames++
	}
	if frames != 6 {
		t.Fatalf("subscriber saw %d frames across flaps, want 6", frames)
	}
	<-reg.stopped
	if reg.Err() != nil {
		t.Fatalf("query error after source death: %v", reg.Err())
	}

	hs := s.HubStats()
	if len(hs) != 1 {
		t.Fatalf("hub stats = %+v", hs)
	}
	if hs[0].Reconnects != 2 {
		t.Fatalf("reconnects = %d, want 2", hs[0].Reconnects)
	}
	if hs[0].State != "dead" {
		t.Fatalf("final hub state = %q, want dead", hs[0].State)
	}
}

// TestSupervisionExhaustionDeclaresDead: when every reconnect attempt
// fails, the hub transitions to dead and subscribers end normally instead
// of hanging.
func TestSupervisionExhaustionDeclaresDead(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx)
	defer s.Close() //nolint:errcheck

	ss := newSegmentedSource(t, 1, 1, 0) // one connection, reconnects all fail
	err := s.AddSourceSpec(SourceSpec{
		Stream:    ss.segment(s.Group()),
		Reconnect: ss.reconnect(s.Group()),
		Retry: RetryPolicy{
			MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	select {
	case <-reg.stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("query hung after supervision exhaustion")
	}
	if reg.Err() != nil {
		t.Fatalf("query error: %v", reg.Err())
	}
	ss.mu.Lock()
	attempts := ss.attempts
	ss.mu.Unlock()
	if attempts != 3 {
		t.Fatalf("reconnect attempts = %d, want 3", attempts)
	}
	if hs := s.HubStats(); hs[0].State != "dead" || hs[0].Reconnects != 0 {
		t.Fatalf("hub after exhaustion = %+v", hs[0])
	}
}

// TestRetryPolicyMaxOutageCapsTheOutage: the outage cap ends supervision
// even while attempts remain.
func TestRetryPolicyMaxOutageCapsTheOutage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx)
	defer s.Close() //nolint:errcheck

	ss := newSegmentedSource(t, 1, 99, 1_000_000) // reconnect never succeeds
	err := s.AddSourceSpec(SourceSpec{
		Stream:    ss.segment(s.Group()),
		Reconnect: ss.reconnect(s.Group()),
		Retry: RetryPolicy{
			MaxAttempts: 1_000_000, Base: 5 * time.Millisecond,
			Max: 10 * time.Millisecond, MaxOutage: 50 * time.Millisecond, Seed: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	start := time.Now()
	select {
	case <-reg.stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("max-outage cap did not end supervision")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("outage ran %v past a 50ms cap", elapsed)
	}
}

// --- satellite regressions -------------------------------------------------

// TestLateSubscribeAfterSourceEnd (regression): registering a query after
// the band's source has ended used to insert a subscriber nobody would
// ever finish(), leaking the whole pipeline. A late subscriber must get an
// immediately-closed stream and terminate normally.
func TestLateSubscribeAfterSourceEnd(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	first, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	view := viewFrames(t, first)
	for {
		if _, ok := view.Next(5 * time.Second); !ok {
			break
		}
	}
	<-first.stopped

	// Source is gone; the hub has closed. A new registration must still be
	// accepted and must reach a terminal state instead of leaking.
	late, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-late.stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("late subscriber's pipeline never terminated (leaked)")
	}
	if late.Err() != nil {
		t.Fatalf("late subscriber error: %v", late.Err())
	}
	if _, ok := viewFrames(t, late).Next(time.Second); ok {
		t.Fatal("late subscriber produced frames from a dead source")
	}
}

// TestDeliverClosesFramesOnErrorExits (regression): deliver used to return
// on encode/assembler errors without closing the frame queue, so HTTP
// clients polling for a frame hung until timeout on a dead query.
func TestDeliverClosesFramesOnErrorExits(t *testing.T) {
	mkReg := func(colormap string) *Registered {
		return &Registered{product: &product{
			opts:    DeliveryOptions{Colormap: colormap},
			deliv:   newDeliveryStats(),
			frames:  newFrameHub(4),
			series:  newSeriesBuffer(16),
			stopped: make(chan struct{}),
		}}
	}

	// Exit path 1: setup failure (unknown colormap) before the loop.
	r := mkReg("no-such-colormap")
	in := make(chan *stream.Chunk)
	errc := make(chan error, 1)
	go func() { errc <- r.deliver(context.Background(), &stream.Stream{C: in}) }()
	if err := <-errc; err == nil {
		t.Fatal("bad colormap must error")
	}
	start := time.Now()
	if _, ok := viewFrames(t, r).Next(5 * time.Second); ok {
		t.Fatal("frame appeared from failed delivery")
	}
	if time.Since(start) > time.Second {
		t.Fatal("frame queue not closed on setup-error exit: reader blocked")
	}

	// Exit path 2: assembler failure mid-loop (malformed chunk kind).
	r = mkReg("gray")
	in = make(chan *stream.Chunk, 1)
	in <- &stream.Chunk{Kind: stream.Kind(99)}
	go func() { errc <- r.deliver(context.Background(), &stream.Stream{C: in}) }()
	if err := <-errc; err == nil {
		t.Fatal("malformed chunk must error")
	}
	start = time.Now()
	if _, ok := viewFrames(t, r).Next(5 * time.Second); ok {
		t.Fatal("frame appeared after assembler error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("frame queue not closed on assembler-error exit: reader blocked")
	}
}

// TestSeriesBufferCursorMonotonic (regression): since() used to snap a
// caller's cursor back to the buffer end, handing a polling client points
// it had already seen. The returned cursor must never move backwards.
func TestSeriesBufferCursorMonotonic(t *testing.T) {
	b := newSeriesBuffer(3)
	for i := 1; i <= 5; i++ { // buffer holds T=3,4,5; base=2, end=5
		b.push(SeriesPoint{T: geom.Timestamp(i)})
	}
	cases := []struct {
		from     int
		wantN    int
		wantNext int
	}{
		{0, 3, 5},   // truncated prefix: snap forward to base, deliver all
		{2, 3, 5},   // exactly at base
		{4, 1, 5},   // mid-buffer
		{5, 0, 5},   // caught up
		{7, 0, 7},   // past the end (pre-fix: next = 5 < from → re-reads)
		{99, 0, 99}, // far past the end stays put
	}
	for _, tc := range cases {
		pts, next := b.since(tc.from)
		if len(pts) != tc.wantN || next != tc.wantNext {
			t.Fatalf("since(%d) = %d pts, next %d; want %d pts, next %d",
				tc.from, len(pts), next, tc.wantN, tc.wantNext)
		}
		if next < tc.from {
			t.Fatalf("since(%d) cursor moved backwards to %d", tc.from, next)
		}
	}
	// Truncation boundary: after more pushes the cursor keeps advancing.
	for i := 6; i <= 9; i++ {
		b.push(SeriesPoint{T: geom.Timestamp(i)})
	}
	pts, next := b.since(5)
	if len(pts) != 3 || next != 9 { // T=7,8,9 retained; 5,6 truncated away
		t.Fatalf("post-truncation since(5) = %d pts, next %d", len(pts), next)
	}
	if pts[0].T != 7 {
		t.Fatalf("post-truncation first point T=%d, want 7", pts[0].T)
	}
}

// --- graceful shutdown & admission -----------------------------------------

func TestGracefulShutdownDrains(t *testing.T) {
	s, stop := startServer(t, 500)
	defer stop()
	reg, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if _, ok := viewFrames(t, reg).Next(5 * time.Second); !ok {
		t.Fatal("no frame before shutdown")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	// Every pipeline reached a terminal state and the frame queue closed.
	select {
	case <-reg.stopped:
	case <-time.After(time.Second):
		t.Fatal("query still running after Shutdown returned")
	}
	if reg.Err() != nil {
		t.Fatalf("drained query error: %v", reg.Err())
	}
	// Registration after shutdown is refused as draining.
	if _, err := s.Register("vis", DeliveryOptions{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Register after Shutdown = %v, want ErrDraining", err)
	}
	if st := s.ServerStats(); !st.Draining {
		t.Fatal("/stats draining flag not set")
	}
}

func TestAdmissionControlMaxQueries(t *testing.T) {
	s, stop := startServer(t, 200)
	defer stop()
	s.SetMaxQueries(1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("vis", DeliveryOptions{}); !errors.Is(err, ErrTooManyQueries) {
		t.Fatalf("over-limit Register = %v, want ErrTooManyQueries", err)
	}

	// Over HTTP: 503 plus a Retry-After hint.
	resp, err := http.Post(ts.URL+"/queries", "application/json",
		strings.NewReader(`{"query": "vis"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit POST /queries = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After hint")
	}
	if st := s.ServerStats(); st.AdmissionRejected != 2 || st.MaxQueries != 1 {
		t.Fatalf("admission stats = %+v", st)
	}

	// Capacity frees on deregistration.
	s.Start()
	if err := s.Deregister(first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("vis", DeliveryOptions{}); err != nil {
		t.Fatalf("Register after capacity freed: %v", err)
	}
}
