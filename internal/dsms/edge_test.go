package dsms

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/obs/trace"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

// TestHTTPAuthRejection table-drives the bearer gate in the same style as
// the handler error-path table: wrong or missing credentials answer 401
// with a JSON body and a WWW-Authenticate challenge; the health probe
// stays open; a valid token passes through to the real handler.
func TestHTTPAuthRejection(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	s.SetAuthToken("s3cret")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		path       string
		auth       string
		wantStatus int
	}{
		{"no credential", "/catalog", "", http.StatusUnauthorized},
		{"wrong token", "/catalog", "Bearer wrong", http.StatusUnauthorized},
		{"wrong scheme", "/catalog", "Basic s3cret", http.StatusUnauthorized},
		{"valid token", "/catalog", "Bearer s3cret", http.StatusOK},
		{"healthz exempt", "/healthz", "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("GET", ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.auth != "" {
				req.Header.Set("Authorization", tc.auth)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantStatus != http.StatusUnauthorized {
				return
			}
			if ch := resp.Header.Get("WWW-Authenticate"); !strings.Contains(ch, "Bearer") {
				t.Fatalf("WWW-Authenticate = %q, want a Bearer challenge", ch)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("401 body is not JSON: %v", err)
			}
			if body.Error == "" {
				t.Fatal("401 body missing error message")
			}
		})
	}
	if got := s.authRejectedHTTP.Load(); got != 3 {
		t.Fatalf("auth rejection counter = %d, want 3", got)
	}
}

// TestHTTPAuthedClient: the Go client threads its Token through unary
// requests against an authed server.
func TestHTTPAuthedClient(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	s.SetAuthToken("s3cret")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bare := NewClient(ts.URL)
	if _, err := bare.Catalog(); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless client error = %v, want 401", err)
	}
	authed := NewClient(ts.URL)
	authed.Token = "s3cret"
	bands, err := authed.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) == 0 {
		t.Fatal("authed catalog came back empty")
	}
}

// TestHTTPRateLimit429: with a 1 req/s, burst-2 bucket the third
// immediate poll is throttled with a Retry-After hint and a JSON error
// body, and the throttle shows up in the limiter stats.
func TestHTTPRateLimit429(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	s.SetRateLimit(1, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reg, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/queries/" + strconv.FormatInt(int64(reg.ID), 10) + "/frame?cursor=oldest&wait=0"
	get := func() *http.Response {
		t.Helper()
		resp, err := ts.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 2; i++ {
		resp := get()
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("request %d inside the burst was throttled", i)
		}
	}
	resp := get()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("429 body is not JSON: %v", err)
	}
	if !strings.Contains(body.Error, "rate limit") {
		t.Fatalf("429 error = %q", body.Error)
	}
	st := s.rateLimiter().Snapshot()
	if st.Throttled == 0 || st.Allowed < 2 {
		t.Fatalf("limiter stats = %+v", st)
	}

	// The catalog endpoint is not rate-limited: observability traffic must
	// keep flowing while a client is throttled.
	cresp, err := ts.Client().Get(ts.URL + "/catalog")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("catalog while throttled = %d, want 200", cresp.StatusCode)
	}
}

// TestIngestAuthRejection: an authed server refuses a feed hello without
// the token (counted on the ingest edge) and admits one that carries it.
func TestIngestAuthRejection(t *testing.T) {
	s, addr, stop := startWireServer(t)
	defer stop()
	s.SetAuthToken("s3cret")

	src := func() *stream.Stream {
		// Cancel (not Wait): the rejected feed returns without draining
		// its stream, so the imager goroutine parks on a send forever.
		gctx, gcancel := context.WithCancel(context.Background())
		t.Cleanup(gcancel)
		g := stream.NewGroup(gctx)
		im, err := sat.NewLatLonImager(geom.R(-122, 36, -120, 38), 24, 20,
			sat.DefaultScene(99), []string{"vis"}, stream.RowByRow, 1)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := im.Streams(g)
		if err != nil {
			t.Fatal(err)
		}
		return streams["vis"]
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A tokenless feeder that awaits the hello verdict (geofeed's default
	// -trace offer does) gets the refusal as a hard error instead of
	// redialling forever against a server that will never admit it.
	err := wire.FeedStream(ctx, addr, src(),
		wire.FeedOptions{Tracer: trace.New(1, 256)}, nil)
	if err == nil || !strings.Contains(err.Error(), "unauthorized") {
		t.Fatalf("tokenless feed error = %v, want unauthorized", err)
	}
	if got := s.authRejectedIngest.Load(); got != 1 {
		t.Fatalf("ingest rejection counter = %d, want 1", got)
	}

	if err := wire.FeedStream(ctx, addr, src(),
		wire.FeedOptions{Token: "s3cret"}, nil); err != nil {
		t.Fatalf("authed feed: %v", err)
	}
	waitForBands(t, s, "vis")
}
